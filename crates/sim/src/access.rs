//! Warp memory accesses and the coalescer.
//!
//! A warp instruction on a real GPU issues one address per active lane; the
//! load/store unit *coalesces* those addresses into the minimal set of
//! memory transactions (32-byte sectors on Volta/Ampere). At the memory
//! system the parallelization strategies differ only in which addresses
//! their lanes touch — e.g. *warp-vertex* makes lanes read consecutive
//! feature elements of one row (1–4 transactions), while *thread-vertex*
//! makes each lane read a different vertex's row (up to 32 transactions) —
//! which is the mechanism behind the locality column of paper Table 6. So
//! one shape describes every access: each active lane touches a run of
//! consecutive bytes from its own base address.

use crate::DeviceConfig;

/// The addresses touched by one warp memory instruction: each active lane
/// touches `bytes` consecutive bytes from its entry in `bases`.
///
/// Bases are 4-byte aligned and `bytes` is a positive multiple of 4. One
/// word shared by the warp is one 4-byte lane; a warp sweeping `n`
/// consecutive words is one lane of `4 * n` bytes; a thread-mapped gather
/// gives each lane its own base, and a thread walking a whole row collapses
/// its per-word loop into one access of the row's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access<'a> {
    /// Byte base address per active lane.
    pub bases: &'a [u64],
    /// Bytes each lane touches from its base.
    pub bytes: u32,
}

impl Access<'_> {
    /// Appends the distinct memory-transaction line ids of this access to
    /// `out`, given the device's line (sector) size. Duplicate lines within
    /// the warp are merged, as the hardware coalescer does.
    pub fn lines(&self, device: &DeviceConfig, out: &mut Vec<u64>) {
        let lb = device.line_bytes as u64;
        let bytes = u64::from(self.bytes);
        let start = out.len();
        for &b in self.bases {
            out.push(b / lb);
            if b % lb + bytes > lb {
                out.extend(b / lb + 1..=(b + bytes - 1) / lb);
            }
        }
        // Hardware coalescing: dedup lines within this instruction.
        let slice = &mut out[start..];
        slice.sort_unstable();
        let mut w = start;
        let mut last: Option<u64> = None;
        for i in start..out.len() {
            if last != Some(out[i]) {
                last = Some(out[i]);
                out[w] = out[i];
                w += 1;
            }
        }
        out.truncate(w);
    }

    /// Appends the 4-byte **word addresses** this access touches to `out`
    /// (byte addresses divided by 4), one entry per active lane per word —
    /// duplicates are *preserved*, unlike the coalescer view of
    /// [`Access::lines`]. This is the write-set view used by the race
    /// cross-check: two lanes of one warp instruction hitting the same word
    /// are two distinct writers racing on one element, even though the
    /// hardware coalescer would merge their transactions.
    pub fn word_addrs(&self, out: &mut Vec<u64>) {
        let words = u64::from(self.bytes).div_ceil(4);
        for &b in self.bases {
            out.extend(b / 4..b / 4 + words);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(a: &Access) -> Vec<u64> {
        let d = DeviceConfig::v100(); // 32-byte lines
        let mut v = Vec::new();
        a.lines(&d, &mut v);
        v
    }

    #[test]
    fn full_warp_coalesced_needs_four_sectors() {
        // 32 lanes x 4 bytes = 128 bytes = 4 x 32-byte sectors.
        let a = Access {
            bases: &[0],
            bytes: 128,
        };
        assert_eq!(lines_of(&a), vec![0, 1, 2, 3]);
    }

    #[test]
    fn misaligned_coalesced_spills_one_extra_sector() {
        let a = Access {
            bases: &[16],
            bytes: 128,
        };
        assert_eq!(lines_of(&a).len(), 5);
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let a = Access {
            bases: &[1000],
            bytes: 4,
        };
        assert_eq!(lines_of(&a).len(), 1);
    }

    #[test]
    fn scatter_deduplicates_same_line() {
        let a = Access {
            bases: &[0, 4, 8, 64, 68, 128],
            bytes: 4,
        };
        // Lines: 0 (x3), 2 (x2), 4 (x1) -> 3 transactions.
        assert_eq!(lines_of(&a), vec![0, 2, 4]);
    }

    #[test]
    fn per_lane_rows_counts_rows_times_sectors() {
        let a = Access {
            bases: &[0, 1024, 2048],
            bytes: 64,
        };
        // Each row: 64 bytes = 2 sectors; rows do not overlap -> 6 lines.
        assert_eq!(lines_of(&a).len(), 6);
    }

    #[test]
    fn per_lane_rows_with_shared_base_coalesces() {
        let a = Access {
            bases: &[0, 0, 0, 0],
            bytes: 32,
        };
        assert_eq!(lines_of(&a), vec![0]);
    }

    #[test]
    fn words_counts_useful_data() {
        let words = |bases: &[u64], bytes| {
            let mut v = Vec::new();
            Access { bases, bytes }.word_addrs(&mut v);
            v
        };
        assert_eq!(words(&[0], 28), (0..7).collect::<Vec<_>>());
        assert_eq!(words(&[64], 4), vec![16]);
        assert_eq!(words(&[0, 64], 12), vec![0, 1, 2, 16, 17, 18]);
        assert_eq!(words(&[0, 4], 4), vec![0, 1]);
    }
}
