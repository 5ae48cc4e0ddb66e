//! Write-set instrumentation for the dynamic race cross-check.
//!
//! When enabled on a [`KernelSim`](crate::KernelSim), every `store` /
//! `atomic` event is additionally recorded at 4-byte word granularity into
//! a [`WriteLog`]. The intended client is `ugrapher-analyze`'s dynamic
//! cross-check: the uGrapher tracer emits exactly one store (or atomic)
//! per output element per owning work item, so an address recorded twice
//! was written by two *distinct* work items — a concurrency conflict —
//! and a conflict containing a non-atomic write is an unprotected race.
//!
//! The log must be driven at full fidelity (no block sampling, no
//! replication): a thinned trace under-counts writers and can miss real
//! conflicts, so [`KernelSim::enable_write_log`](crate::KernelSim::enable_write_log)
//! rejects replicated launches.

use std::collections::HashMap;

use crate::access::Access;

/// Write counts for one 4-byte word of global memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordWrites {
    /// Total write events (stores + atomics) touching this word.
    pub total: u32,
    /// How many of them were atomic read-modify-writes.
    pub atomic: u32,
}

impl WordWrites {
    /// `true` when at least two writers touched this word.
    pub fn contended(&self) -> bool {
        self.total >= 2
    }

    /// `true` when the word is contended and at least one write was a
    /// plain (non-atomic) store — i.e. an actual data race.
    pub fn unprotected(&self) -> bool {
        self.contended() && self.atomic < self.total
    }
}

/// Word-granular log of every output write a simulated kernel performed.
#[derive(Debug, Clone, Default)]
pub struct WriteLog {
    words: HashMap<u64, WordWrites>,
    scratch: Vec<u64>,
}

impl WriteLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one warp write instruction.
    pub fn record(&mut self, access: &Access, atomic: bool) {
        self.scratch.clear();
        access.word_addrs(&mut self.scratch);
        for &w in &self.scratch {
            let entry = self.words.entry(w).or_default();
            entry.total += 1;
            if atomic {
                entry.atomic += 1;
            }
        }
    }

    /// Number of distinct words written.
    pub fn num_addresses(&self) -> usize {
        self.words.len()
    }

    /// Total write events across all words.
    pub fn total_writes(&self) -> u64 {
        self.words.values().map(|w| w.total as u64).sum()
    }

    /// Words written by at least two writers, i.e. the observed
    /// concurrency conflicts (sorted by address for determinism).
    pub fn contended_addresses(&self) -> Vec<(u64, WordWrites)> {
        let mut v: Vec<(u64, WordWrites)> = self
            .words
            .iter()
            .filter(|(_, w)| w.contended())
            .map(|(&a, &w)| (a, w))
            .collect();
        v.sort_unstable_by_key(|(a, _)| *a);
        v
    }

    /// `true` when any word was written by two or more writers.
    pub fn has_conflicts(&self) -> bool {
        self.words.values().any(|w| w.contended())
    }

    /// Contended words where at least one write was non-atomic — actual
    /// data races the schedule failed to protect (sorted by address).
    pub fn unprotected_addresses(&self) -> Vec<(u64, WordWrites)> {
        let mut v: Vec<(u64, WordWrites)> = self
            .words
            .iter()
            .filter(|(_, w)| w.unprotected())
            .map(|(&a, &w)| (a, w))
            .collect();
        v.sort_unstable_by_key(|(a, _)| *a);
        v
    }

    /// Per-word counts for one address, if it was written.
    pub fn writes_at(&self, word_addr: u64) -> Option<WordWrites> {
        self.words.get(&word_addr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_writes_are_not_conflicts() {
        let mut log = WriteLog::new();
        log.record(
            &Access {
                bases: &[0],
                bytes: 32,
            },
            false,
        );
        assert_eq!(log.num_addresses(), 8);
        assert!(!log.has_conflicts());
        assert!(log.contended_addresses().is_empty());
    }

    #[test]
    fn double_write_is_a_conflict() {
        let mut log = WriteLog::new();
        log.record(
            &Access {
                bases: &[64],
                bytes: 4,
            },
            false,
        );
        log.record(
            &Access {
                bases: &[64],
                bytes: 4,
            },
            false,
        );
        assert!(log.has_conflicts());
        let contended = log.contended_addresses();
        assert_eq!(
            contended,
            vec![(
                16,
                WordWrites {
                    total: 2,
                    atomic: 0
                }
            )]
        );
        assert_eq!(log.unprotected_addresses().len(), 1);
    }

    #[test]
    fn atomic_conflicts_are_protected() {
        let mut log = WriteLog::new();
        log.record(
            &Access {
                bases: &[128],
                bytes: 4,
            },
            true,
        );
        log.record(
            &Access {
                bases: &[128],
                bytes: 4,
            },
            true,
        );
        assert!(log.has_conflicts(), "two writers still contend");
        assert!(
            log.unprotected_addresses().is_empty(),
            "all-atomic contention is not a race"
        );
    }

    #[test]
    fn mixed_atomicity_on_one_word_is_unprotected() {
        let mut log = WriteLog::new();
        log.record(
            &Access {
                bases: &[0],
                bytes: 4,
            },
            true,
        );
        log.record(
            &Access {
                bases: &[0],
                bytes: 4,
            },
            false,
        );
        assert_eq!(log.unprotected_addresses().len(), 1);
    }

    #[test]
    fn same_word_lanes_within_one_instruction_are_two_writers() {
        // Two lanes of one warp instruction hitting the same word are two
        // distinct work items racing on one element: the coalescer would
        // merge their transactions, but the write log must not.
        let mut log = WriteLog::new();
        log.record(
            &Access {
                bases: &[100, 100],
                bytes: 4,
            },
            false,
        );
        assert_eq!(
            log.writes_at(25),
            Some(WordWrites {
                total: 2,
                atomic: 0
            })
        );
        assert!(log.has_conflicts());
    }

    #[test]
    fn per_lane_rows_cover_whole_rows() {
        let mut log = WriteLog::new();
        log.record(
            &Access {
                bases: &[0, 1024],
                bytes: 16,
            },
            false,
        );
        assert_eq!(log.num_addresses(), 8);
        assert_eq!(log.total_writes(), 8);
    }
}
