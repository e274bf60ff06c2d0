//! Durable write-ahead job journal for crash-safe campaigns.
//!
//! The result cache makes *completed* jobs durable; the journal makes the
//! *campaign's failures* durable. Before a campaign executes anything,
//! the engine opens `<cache>/journal/<campaign-fingerprint>.wal` and
//! appends a `campaign` header, then one record per finished attempt —
//! `done` or `failed` — and a `quarantined` record per job that exhausts
//! its retries, each fsync'd before the engine proceeds. A cold batch of
//! N jobs that all succeed journals 1 + N records; outside `--resume`, a
//! batch that executes nothing (every job a cache hit or a duplicate)
//! journals nothing and removes the campaign's stale journal. A process
//! killed mid-campaign (SIGKILL, power loss) can then be resumed with
//! `--resume`: the journal's valid prefix is replayed, strike counts and
//! quarantine verdicts are restored, and only jobs that never completed
//! re-execute (their results come out of the content-addressed cache
//! otherwise, so the resumed report is byte-identical to an
//! uninterrupted run). Resume acts on the header, `failed` and
//! `quarantined` records; `done` records only mark progress
//! ([`Replay::completed`]).
//!
//! # On-disk format
//!
//! The file is a sequence of length-prefixed, checksummed binary records:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes of compact JSON] [digest: 16 bytes]
//! ```
//!
//! The digest is the repo's 128-bit content fingerprint of the payload
//! (two u64 words, little-endian). Appends are a single `write_all`
//! followed by `sync_data`, so a crash leaves at most one torn record at
//! the tail. On resume the reader walks records from the start, stops at
//! the first malformed or digest-failing one, **truncates the torn tail**
//! and reopens for append — the journal self-heals exactly like the
//! cache, and a torn tail is always *detected*, never replayed.
//!
//! Replay is a per-fingerprint fold ([`Replay`]), insensitive to record
//! interleaving: worker threads append completion records in whatever
//! order jobs finish, and that order never influences campaign output
//! (the engine's determinism contract covers report bytes, not WAL
//! bytes).

use crate::chaos::IoFaultShim;
use crate::fingerprint::{Fingerprint, Hasher};
use crate::json::{write_str, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Bytes of checksum trailing every record payload.
const DIGEST_LEN: usize = 16;

/// One journal record. Payloads are compact JSON for debuggability
/// (`strings file.wal` shows the campaign history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// Header: identifies the campaign this journal belongs to.
    Campaign {
        /// Hex campaign fingerprint (folded over all job fingerprints).
        fingerprint: String,
        /// Number of jobs submitted.
        jobs: u64,
    },
    /// The job completed and its result is durable in the cache.
    Done {
        /// Submission index.
        index: u64,
        /// Hex job fingerprint (the cache slot holding the result).
        fp: String,
    },
    /// The job failed (`class` is `"panic"` or `"timeout"`).
    Failed {
        /// Hex job fingerprint (one strike against it).
        fp: String,
        /// Failure class.
        class: String,
        /// Attempt number (1-based) that produced this failure.
        attempt: u64,
    },
    /// The job exhausted its retries and was poisoned.
    Quarantined {
        /// Hex job fingerprint.
        fp: String,
        /// Number of failed attempts on record.
        strikes: u64,
    },
}

impl JournalRecord {
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            JournalRecord::Campaign { fingerprint, jobs } => {
                s.push_str("{\"rec\":\"campaign\",\"fingerprint\":");
                write_str(&mut s, fingerprint);
                s.push_str(&format!(",\"jobs\":{jobs}}}"));
            }
            JournalRecord::Done { index, fp } => {
                s.push_str(&format!("{{\"rec\":\"done\",\"index\":{index},\"fp\":"));
                write_str(&mut s, fp);
                s.push('}');
            }
            JournalRecord::Failed { fp, class, attempt } => {
                s.push_str("{\"rec\":\"failed\",\"fp\":");
                write_str(&mut s, fp);
                s.push_str(",\"class\":");
                write_str(&mut s, class);
                s.push_str(&format!(",\"attempt\":{attempt}}}"));
            }
            JournalRecord::Quarantined { fp, strikes } => {
                s.push_str("{\"rec\":\"quarantined\",\"fp\":");
                write_str(&mut s, fp);
                s.push_str(&format!(",\"strikes\":{strikes}}}"));
            }
        }
        s
    }

    fn from_json(v: &Json) -> Option<JournalRecord> {
        let rec = v.get("rec")?.as_str()?;
        let u = |key: &str| v.get(key).and_then(Json::as_u64);
        let st = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        Some(match rec {
            "campaign" => JournalRecord::Campaign { fingerprint: st("fingerprint")?, jobs: u("jobs")? },
            "done" => JournalRecord::Done { index: u("index")?, fp: st("fp")? },
            "failed" => JournalRecord::Failed { fp: st("fp")?, class: st("class")?, attempt: u("attempt")? },
            "quarantined" => JournalRecord::Quarantined { fp: st("fp")?, strikes: u("strikes")? },
            _ => return None,
        })
    }
}

fn payload_digest(payload: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Hasher::new();
    h.update(payload);
    let Fingerprint(a, b) = h.finish();
    let mut out = [0u8; DIGEST_LEN];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

/// The fold of a replayed journal: everything a resumed campaign needs.
#[derive(Debug, Default)]
pub struct Replay {
    /// Header, if the journal had a valid one.
    pub campaign: Option<(String, u64)>,
    /// Fingerprints with a `done` record (results durable in the cache).
    pub completed: BTreeSet<String>,
    /// Poisoned fingerprints and their strike counts.
    pub quarantined: BTreeMap<String, u64>,
    /// Failed-attempt counts per fingerprint (panics and timeouts).
    pub strikes: BTreeMap<String, u64>,
    /// Number of valid records replayed.
    pub records: u64,
    /// Bytes of torn tail truncated during recovery (0 = clean).
    pub torn_bytes: u64,
}

impl Replay {
    fn fold(records: &[JournalRecord]) -> Replay {
        let mut r = Replay { records: records.len() as u64, ..Replay::default() };
        for rec in records {
            match rec {
                JournalRecord::Campaign { fingerprint, jobs } => {
                    r.campaign = Some((fingerprint.clone(), *jobs));
                }
                JournalRecord::Done { fp, .. } => {
                    r.completed.insert(fp.clone());
                }
                JournalRecord::Failed { fp, .. } => {
                    *r.strikes.entry(fp.clone()).or_insert(0) += 1;
                }
                JournalRecord::Quarantined { fp, strikes } => {
                    r.quarantined.insert(fp.clone(), *strikes);
                }
            }
        }
        r
    }
}

/// An append-only, checksummed, fsync'd journal file. Appends are
/// serialized internally, so worker threads share one handle.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<fs::File>,
    path: PathBuf,
    io_faults: Option<IoFaultShim>,
}

impl Journal {
    /// Starts a fresh journal at `path`, truncating any previous one
    /// (non-resume campaigns always start clean).
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(Journal { file: Mutex::new(file), path: path.to_path_buf(), io_faults: None })
    }

    /// Opens `path` for resumption: reads the valid record prefix,
    /// truncates any torn tail, and reopens for append. A missing file
    /// yields an empty replay (resume of a never-started campaign).
    pub fn open_resume(path: &Path) -> std::io::Result<(Journal, Replay)> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let (records, valid_len) = scan_records(&bytes);
        let torn = bytes.len() as u64 - valid_len;
        if torn > 0 {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(std::io::SeekFrom::End(0))?;

        let mut replay = Replay::fold(&records);
        replay.torn_bytes = torn;
        Ok((Journal { file: Mutex::new(file), path: path.to_path_buf(), io_faults: None }, replay))
    }

    /// Routes every subsequent append through `shim`, which may tear or
    /// corrupt the written bytes. Chaos harness use only.
    pub fn with_io_faults(mut self, shim: IoFaultShim) -> Journal {
        self.io_faults = Some(shim);
        self
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record durably: a single `write_all` of the framed
    /// record followed by `sync_data`, under the internal lock.
    pub fn append(&self, rec: &JournalRecord) -> std::io::Result<()> {
        let payload = rec.to_json().into_bytes();
        let mut framed = Vec::with_capacity(payload.len() + 4 + DIGEST_LEN);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&payload_digest(&payload));
        if let Some(shim) = &self.io_faults {
            shim.mangle("journal.append", &mut framed);
        }
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(&framed)?;
        file.sync_data()
    }
}

/// Walks the record stream, returning the decoded valid prefix and the
/// byte length it spans. Stops at the first torn/corrupt record.
fn scan_records(bytes: &[u8]) -> (Vec<JournalRecord>, u64) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(len_bytes) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
        let Some(payload) = bytes.get(at + 4..at + 4 + len) else { break };
        let Some(digest) = bytes.get(at + 4 + len..at + 4 + len + DIGEST_LEN) else { break };
        if digest != payload_digest(payload) {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        let Ok(value) = Json::parse(text) else { break };
        let Some(rec) = JournalRecord::from_json(&value) else { break };
        records.push(rec);
        at += 4 + len + DIGEST_LEN;
    }
    (records, at as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{IoFaultKind, IoFaultShim};

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfd-exec-journal-test-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{tag}.wal"));
        let _ = fs::remove_file(&path);
        path
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Campaign { fingerprint: "abc123".to_string(), jobs: 3 },
            JournalRecord::Done { index: 0, fp: "f0".to_string() },
            failed("f1", 1),
            JournalRecord::Quarantined { fp: "f1".to_string(), strikes: 2 },
        ]
    }

    fn failed(fp: &str, attempt: u64) -> JournalRecord {
        JournalRecord::Failed { fp: fp.to_string(), class: "panic".to_string(), attempt }
    }

    #[test]
    fn append_then_resume_replays_every_record() {
        let path = temp_wal("roundtrip");
        let journal = Journal::create(&path).unwrap();
        for rec in sample_records() {
            journal.append(&rec).unwrap();
        }
        drop(journal);
        let (_journal, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records, 4);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.campaign, Some(("abc123".to_string(), 3)));
        assert!(replay.completed.contains("f0"));
        assert_eq!(replay.quarantined.get("f1"), Some(&2));
        assert_eq!(replay.strikes.get("f1"), Some(&1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn failed_records_alone_fold_into_strikes() {
        let replay = Replay::fold(&[failed("f1", 1), failed("f2", 1), failed("f1", 2)]);
        assert_eq!(replay.strikes.get("f1"), Some(&2));
        assert_eq!(replay.strikes.get("f2"), Some(&1));
        assert_eq!(replay.strikes.len(), 2);
        assert!(replay.campaign.is_none() && replay.completed.is_empty() && replay.quarantined.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let path = temp_wal("torn");
        let journal = Journal::create(&path).unwrap();
        journal.append(&failed("f0", 1)).unwrap();
        journal.append(&JournalRecord::Done { index: 0, fp: "f0".to_string() }).unwrap();
        drop(journal);
        // Simulate a crash mid-append: chop bytes off the tail.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (journal, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records, 1, "only the intact first record survives");
        assert_eq!(
            replay.torn_bytes as usize,
            bytes.len() - 7 - (fs::metadata(journal.path()).unwrap().len() as usize)
        );
        assert!(replay.completed.is_empty());
        // The healed journal accepts new appends and replays cleanly.
        journal.append(&JournalRecord::Done { index: 0, fp: "f0".to_string() }).unwrap();
        drop(journal);
        let (_journal, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.torn_bytes, 0);
        assert!(replay.completed.contains("f0"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_body_stops_the_replay() {
        let path = temp_wal("flip");
        let journal = Journal::create(&path).unwrap();
        journal.append(&failed("f0", 1)).unwrap();
        journal.append(&JournalRecord::Done { index: 0, fp: "f0".to_string() }).unwrap();
        drop(journal);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit in the second record's payload.
        let second_start = {
            let first_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            4 + first_len + DIGEST_LEN
        };
        bytes[second_start + 10] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (_journal, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records, 1);
        assert!(replay.torn_bytes > 0);
        assert!(replay.completed.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn shim_torn_append_is_detected_on_resume() {
        let path = temp_wal("shim");
        let shim = IoFaultShim::new(5, IoFaultKind::TornWrite, 1);
        let journal = Journal::create(&path).unwrap().with_io_faults(shim.clone());
        journal.append(&JournalRecord::Done { index: 0, fp: "f0".to_string() }).unwrap();
        assert_eq!(shim.injected_count(), 1);
        drop(journal);
        let (_journal, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records, 0, "torn record never replays");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_journal_is_empty() {
        let path = temp_wal("missing");
        let (_journal, replay) = Journal::open_resume(&path).unwrap();
        assert_eq!(replay.records, 0);
        let _ = fs::remove_file(&path);
    }
}
