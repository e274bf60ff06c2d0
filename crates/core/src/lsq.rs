//! Load/store disambiguation and store-to-load forwarding.
//!
//! Conservative disambiguation over `store_list` (in-flight stores in age
//! order): a load issues only when every older store has a computed
//! address; an exact-match older store with ready data forwards, a partial
//! overlap (or unready data) blocks the load until the store drains.

use crate::pipeline::Pipeline;
use crate::rename::Taint;
use cfd_isa::{Instr, MemWidth};

/// What a load sees when probing the older in-flight stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForwardState {
    /// Load can read committed memory.
    Memory,
    /// Load forwards this in-flight store's value (with its data taint).
    Forward { data: i64, taint: Taint },
    /// Load must wait (unknown or partially overlapping older store).
    MustWait,
}

impl Pipeline {
    /// Whether the load at ROB index `i` may issue under conservative
    /// disambiguation (anything but [`ForwardState::MustWait`]), and if
    /// so where its value comes from. Issue hands the answer to execute,
    /// so each issued load scans the store list once.
    pub(crate) fn load_may_issue(&self, i: usize) -> ForwardState {
        let Instr::Load { offset, width, .. } = self.win[i].instr else { return ForwardState::Memory };
        let base = self.win[i].psrc1.expect("load base renamed");
        if !self.rename.is_ready(base, self.now) {
            return ForwardState::MustWait;
        }
        let addr = (self.rename.read(base) as u64).wrapping_add(offset as u64);
        self.forwarding_probe(i, addr, width)
    }

    fn forwarding_probe(&self, load_idx: usize, addr: u64, width: MemWidth) -> ForwardState {
        let lw = width.bytes();
        let mut result = ForwardState::Memory;
        let load_seq = self.win.ordinal(load_idx);
        for &sseq in &self.store_list {
            if sseq >= load_seq {
                break;
            }
            let Some(j) = self.win.rob_idx(sseq) else { continue };
            let s = &self.win[j];
            if !s.issued {
                return ForwardState::MustWait; // unknown address
            }
            let saddr = s.eff_addr.expect("issued store has address");
            let sw = match s.instr {
                Instr::Store { width, .. } => width.bytes(),
                _ => unreachable!(),
            };
            // Overlap test.
            if saddr < addr.wrapping_add(lw) && addr < saddr.wrapping_add(sw) {
                if saddr == addr && lw <= sw {
                    // Forward only once the store's data is available.
                    let data_src = s.psrc2.expect("store has a data source");
                    if self.rename.is_ready(data_src, self.now) {
                        result = ForwardState::Forward {
                            data: self.rename.read(data_src),
                            taint: self.rename.taint(data_src),
                        };
                    } else {
                        return ForwardState::MustWait; // data not produced yet
                    }
                } else {
                    return ForwardState::MustWait; // partial overlap
                }
            }
        }
        result
    }
}
