//! Protection of the direction ("D") metadata: parity and SECDED.
//!
//! The direction bits are the cache's single point of silent failure: a
//! soft-error upset in one D bit makes an entire partition decode
//! inverted with zero detection (experiment `fig13`). This module adds
//! the two classic code points over the per-line direction vector:
//!
//! * [`ProtectionMode::Parity`] — one even-parity bit over the D vector.
//!   Detects every odd-weight upset (in particular all single upsets),
//!   corrects nothing, and misses even-weight upsets.
//! * [`ProtectionMode::Secded`] — an extended Hamming code: corrects any
//!   single-bit upset (in the D vector *or* in the check bits) and
//!   detects all double upsets.
//!
//! [`ProtectedDirectionBits`] bundles a [`DirectionBits`] vector with its
//! check bits and recomputes them on every *legal* mutation; soft errors
//! are modelled by the `upset_*` methods, which corrupt state without
//! touching the check bits — exactly what a particle strike does.

use std::fmt;
use std::ops::Deref;

use serde::{Deserialize, Serialize};

use crate::direction::{DirectionBits, EncodingDirection};
use crate::history::AccessHistory;

/// How (and whether) the per-line direction vector is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ProtectionMode {
    /// No protection: upsets corrupt silently (the seed behaviour).
    #[default]
    None,
    /// One even-parity bit over the direction vector: detect-only.
    Parity,
    /// Extended Hamming (SECDED): single-error correct, double-error
    /// detect, over direction vector plus check bits.
    Secded,
}

impl ProtectionMode {
    /// Check bits stored per line for a `partitions`-bit direction vector.
    ///
    /// # Panics
    ///
    /// Panics under [`ProtectionMode::Secded`] if `partitions` exceeds 64.
    pub fn check_bits(self, partitions: u32) -> u32 {
        match self {
            ProtectionMode::None => 0,
            ProtectionMode::Parity => 1,
            ProtectionMode::Secded => hamming_parity_bits(partitions) + 1,
        }
    }

    /// Computes the check word for a direction mask.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is out of `1..=64`.
    pub fn encode(self, mask: u64, partitions: u32) -> u64 {
        assert!(
            (1..=64).contains(&partitions),
            "partition count must be in 1..=64, got {partitions}"
        );
        match self {
            ProtectionMode::None => 0,
            ProtectionMode::Parity => u64::from(mask.count_ones() & 1),
            ProtectionMode::Secded => secded_encode(mask, partitions),
        }
    }
}

impl fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionMode::None => f.write_str("none"),
            ProtectionMode::Parity => f.write_str("parity"),
            ProtectionMode::Secded => f.write_str("secded"),
        }
    }
}

/// `HAMMING_PARITY_BITS[k]`: the smallest `r` with `2^r >= k + r + 1`,
/// the Hamming parity-bit count for `k` data bits.
const HAMMING_PARITY_BITS: [u8; 65] = [
    0, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6,
    6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7,
    7,
];

/// `DATA_POSITIONS[i]`: the 1-based codeword position of data bit `i`,
/// the `(i + 1)`-th non-power-of-two position.
const DATA_POSITIONS: [u8; 64] = [
    3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
    31, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55,
    56, 57, 58, 59, 60, 61, 62, 63, 65, 66, 67, 68, 69, 70, 71,
];

/// Number of Hamming parity bits `r` needed for `data_bits` data bits.
///
/// # Panics
///
/// Panics if `data_bits` exceeds 64.
fn hamming_parity_bits(data_bits: u32) -> u32 {
    u32::from(HAMMING_PARITY_BITS[data_bits as usize])
}

/// The data-bit index stored at codeword position `pos`, or `None` if
/// `pos` is a parity position or beyond the codeword.
fn data_index_at(pos: u32, data_bits: u32, parity_bits: u32) -> Option<u32> {
    if pos == 0 || pos.is_power_of_two() || pos > data_bits + parity_bits {
        return None;
    }
    // Data bits fill non-power positions in order; the index is the
    // count of non-power positions strictly below `pos`.
    let below = pos - 1;
    let powers_below = below.checked_ilog2().map_or(0, |l| l + 1);
    let idx = below - powers_below;
    (idx < data_bits).then_some(idx)
}

/// The Hamming parities of the low `data_bits` of `mask`: parity `j`
/// covers codeword positions with bit `j` set, so the parity word is the
/// XOR of the set data bits' positions (every position is below `2^r`).
fn hamming_parities(mask: u64, data_bits: u32) -> u64 {
    let mut bits = mask & u64::MAX.checked_shr(64 - data_bits).unwrap_or(0);
    let mut parities = 0u64;
    while bits != 0 {
        parities ^= u64::from(DATA_POSITIONS[bits.trailing_zeros() as usize]);
        bits &= bits - 1;
    }
    parities
}

/// Extended-Hamming check word for `mask` (low `data_bits` significant):
/// bits `0..r` hold the Hamming parities, bit `r` holds the overall
/// parity over data plus Hamming parities.
fn secded_encode(mask: u64, data_bits: u32) -> u64 {
    let r = hamming_parity_bits(data_bits);
    let parities = hamming_parities(mask, data_bits);
    let overall = (mask.count_ones() + parities.count_ones()) & 1;
    parities | (u64::from(overall) << r)
}

/// The decoder shared by every protected metadata register: verdict for
/// a `data_bits`-bit data word against its stored check word.
fn code_verdict(mode: ProtectionMode, data: u64, data_bits: u32, check: u64) -> ProtectionVerdict {
    match mode {
        ProtectionMode::None => ProtectionVerdict::Clean,
        ProtectionMode::Parity => {
            if mode.encode(data, data_bits) == check {
                ProtectionVerdict::Clean
            } else {
                ProtectionVerdict::Uncorrectable
            }
        }
        ProtectionMode::Secded => {
            let r = hamming_parity_bits(data_bits);
            // Syndrome: which Hamming parities disagree with the data.
            let syndrome = ((hamming_parities(data, data_bits) ^ check) & ((1 << r) - 1)) as u32;
            // Overall parity over the *received* codeword: data bits,
            // stored Hamming parities, stored overall bit.
            let stored_parities = check & ((1 << r) - 1);
            let stored_overall = (check >> r & 1) as u32;
            let overall = (data.count_ones() + stored_parities.count_ones() + stored_overall) & 1;
            match (syndrome, overall) {
                (0, 0) => ProtectionVerdict::Clean,
                // Odd overall parity: a single upset at codeword
                // position `syndrome` (0 = the overall bit itself).
                (0, _) => ProtectionVerdict::CorrectedCheck,
                (s, 1) => {
                    if s.is_power_of_two() && s.trailing_zeros() < r {
                        ProtectionVerdict::CorrectedCheck
                    } else {
                        match data_index_at(s, data_bits, r) {
                            Some(i) => ProtectionVerdict::CorrectedData(i),
                            // Syndrome points outside the codeword:
                            // must be a multi-bit upset.
                            None => ProtectionVerdict::Uncorrectable,
                        }
                    }
                }
                // Non-zero syndrome with even overall parity: double
                // upset.
                (_, _) => ProtectionVerdict::Uncorrectable,
            }
        }
    }
}

/// The outcome of verifying (and possibly repairing) protected metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectionVerdict {
    /// Check bits match the direction vector.
    Clean,
    /// A single upset in direction bit `p` was located and repaired in
    /// the metadata register. The caller must restore the partition's
    /// decoded view (the data array itself was never wrong).
    CorrectedData(u32),
    /// A single upset in the check bits themselves was repaired; the
    /// direction vector (and therefore the data) was never wrong.
    CorrectedCheck,
    /// A fault was detected but cannot be located (parity mode, or a
    /// multi-bit upset under SECDED). The direction vector can no longer
    /// be trusted.
    Uncorrectable,
}

impl ProtectionVerdict {
    /// `true` when a fault was detected (whether or not it was repaired).
    pub fn detected(self) -> bool {
        self != ProtectionVerdict::Clean
    }
}

/// A [`DirectionBits`] vector bundled with its protection check bits.
///
/// Legal mutations ([`set`](Self::set), [`toggle`](Self::toggle),
/// [`apply_flips`](Self::apply_flips), [`normalize`](Self::normalize))
/// recompute the check word; soft errors are injected with
/// [`upset_direction`](Self::upset_direction) /
/// [`upset_check`](Self::upset_check), which corrupt state *without*
/// updating the check bits. [`verify_and_repair`](Self::verify_and_repair)
/// then plays the decoder.
///
/// # Example
///
/// ```
/// use cnt_encoding::{ProtectedDirectionBits, ProtectionMode, ProtectionVerdict};
///
/// let mut dirs = ProtectedDirectionBits::all_normal(8, ProtectionMode::Secded);
/// dirs.toggle(3); // legal update: check bits follow
/// assert_eq!(dirs.verify_and_repair(), ProtectionVerdict::Clean);
///
/// dirs.upset_direction(5); // soft error: check bits do NOT follow
/// assert_eq!(dirs.verify_and_repair(), ProtectionVerdict::CorrectedData(5));
/// assert!(!dirs.is_inverted(5), "the upset was rolled back");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProtectedDirectionBits {
    dirs: DirectionBits,
    mode: ProtectionMode,
    check: u64,
}

impl ProtectedDirectionBits {
    /// Wraps a direction vector, computing its check bits.
    pub fn new(dirs: DirectionBits, mode: ProtectionMode) -> Self {
        let check = mode.encode(dirs.mask(), dirs.partitions());
        ProtectedDirectionBits { dirs, mode, check }
    }

    /// All partitions normal, check bits consistent.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is out of `1..=64`.
    pub fn all_normal(partitions: u32, mode: ProtectionMode) -> Self {
        ProtectedDirectionBits::new(DirectionBits::all_normal(partitions), mode)
    }

    /// The protected direction vector.
    pub fn bits(&self) -> &DirectionBits {
        &self.dirs
    }

    /// The protection mode.
    pub fn mode(&self) -> ProtectionMode {
        self.mode
    }

    /// The stored check word.
    pub fn check(&self) -> u64 {
        self.check
    }

    /// Check bits stored alongside this vector.
    pub fn check_storage_bits(&self) -> u32 {
        self.mode.check_bits(self.dirs.partitions())
    }

    /// One-bits currently stored in the check word (for energy pricing).
    pub fn check_ones(&self) -> u32 {
        self.check.count_ones()
    }

    /// Total metadata storage: direction bits plus check bits.
    pub fn storage_bits(&self) -> u32 {
        self.dirs.storage_bits() + self.check_storage_bits()
    }

    /// Legal update: sets partition `p`'s direction and recomputes the
    /// check bits.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set(&mut self, p: u32, direction: EncodingDirection) {
        self.dirs.set(p, direction);
        self.recompute();
    }

    /// Legal update: flips partition `p`'s direction and recomputes the
    /// check bits.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn toggle(&mut self, p: u32) {
        self.dirs.toggle(p);
        self.recompute();
    }

    /// Legal update: applies a flip mask and recomputes the check bits.
    ///
    /// # Panics
    ///
    /// Panics if the flip mask has bits above the partition count.
    pub fn apply_flips(&mut self, flips: u64) {
        self.dirs.apply_flips(flips);
        self.recompute();
    }

    /// Legal update: forces every partition back to `Normal` (the
    /// fallback-baseline degradation) and recomputes the check bits.
    pub fn normalize(&mut self) {
        self.dirs = DirectionBits::all_normal(self.dirs.partitions());
        self.recompute();
    }

    /// Soft error: flips direction bit `p` *without* updating the check
    /// bits (what a particle strike on the D register does).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn upset_direction(&mut self, p: u32) {
        self.dirs.toggle(p);
    }

    /// Soft error: flips check bit `bit` *without* updating anything
    /// else.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not a stored check bit under this mode.
    pub fn upset_check(&mut self, bit: u32) {
        assert!(
            bit < self.check_storage_bits(),
            "check bit {bit} out of range for {} mode",
            self.mode
        );
        self.check ^= 1 << bit;
    }

    /// Verifies the check bits against the direction vector, repairing
    /// the metadata register when the code allows it.
    ///
    /// For [`ProtectionVerdict::CorrectedData`] the direction bit has
    /// already been rolled back here, but the *caller* owns the decoded
    /// data view and must restore it too. All other verdicts leave the
    /// direction vector as it was.
    pub fn verify_and_repair(&mut self) -> ProtectionVerdict {
        let verdict = self.verdict();
        match verdict {
            ProtectionVerdict::CorrectedData(p) => {
                self.dirs.toggle(p);
                self.recompute();
            }
            ProtectionVerdict::CorrectedCheck => self.recompute(),
            ProtectionVerdict::Clean | ProtectionVerdict::Uncorrectable => {}
        }
        verdict
    }

    /// The decoder's verdict without mutating anything.
    pub fn verdict(&self) -> ProtectionVerdict {
        code_verdict(
            self.mode,
            self.dirs.mask(),
            self.dirs.partitions(),
            self.check,
        )
    }

    fn recompute(&mut self) {
        self.check = self.mode.encode(self.dirs.mask(), self.dirs.partitions());
    }
}

impl Deref for ProtectedDirectionBits {
    type Target = DirectionBits;
    fn deref(&self) -> &DirectionBits {
        &self.dirs
    }
}

/// The per-line access-history counters (the "H" bits) bundled with
/// protection check bits, closing the metadata-vulnerability gap fig13
/// exposed for the D bits: an upset in `A_num`/`Wr_num` silently skews
/// *when* the predictor fires and what write ratio it sees.
///
/// The two counters are packed `A_num | Wr_num << counter_bits` into a
/// `2 · counter_bits` data word and protected with the same codes as
/// [`ProtectedDirectionBits`]. Legal updates ([`record`](Self::record),
/// [`reset`](Self::reset)) recompute the check word; soft errors
/// ([`upset_bit`](Self::upset_bit), [`upset_check`](Self::upset_check))
/// do not.
///
/// # Example
///
/// ```
/// use cnt_encoding::{ProtectedHistory, ProtectionMode, ProtectionVerdict};
///
/// let mut h = ProtectedHistory::new(15, ProtectionMode::Secded);
/// h.record(true);
/// h.record(false);
/// assert_eq!(h.verify_and_repair(), ProtectionVerdict::Clean);
///
/// h.upset_bit(0); // A_num bit 0 flips: 2 -> 3
/// assert_eq!(h.accesses(), 3);
/// assert_eq!(h.verify_and_repair(), ProtectionVerdict::CorrectedData(0));
/// assert_eq!(h.accesses(), 2, "the upset was rolled back");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtectedHistory {
    a_num: u32,
    wr_num: u32,
    window: u32,
    mode: ProtectionMode,
    check: u64,
}

impl ProtectedHistory {
    /// Fresh counters (both zero) for a window of length `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u32, mode: ProtectionMode) -> Self {
        assert!(window > 0, "window must be positive");
        let mut h = ProtectedHistory {
            a_num: 0,
            wr_num: 0,
            window,
            mode,
            check: 0,
        };
        h.recompute();
        h
    }

    /// Rebuilds a protected history from plain counters (checkpoint
    /// restore), computing consistent check bits.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_history(history: AccessHistory, window: u32, mode: ProtectionMode) -> Self {
        let mut h = ProtectedHistory::new(window, mode);
        h.a_num = history.accesses();
        h.wr_num = history.writes();
        h.recompute();
        h
    }

    /// The counters as a plain [`AccessHistory`].
    ///
    /// # Panics
    ///
    /// Panics if an un-repaired upset left `Wr_num > A_num` (not a
    /// reachable state); call
    /// [`verify_and_repair`](Self::verify_and_repair) first.
    pub fn to_history(self) -> AccessHistory {
        AccessHistory::from_raw(self.a_num, self.wr_num)
    }

    /// `A_num`: accesses recorded this window.
    pub fn accesses(&self) -> u32 {
        self.a_num
    }

    /// `Wr_num`: writes recorded this window.
    pub fn writes(&self) -> u32 {
        self.wr_num
    }

    /// Reads recorded this window (saturating: an un-repaired upset can
    /// leave `Wr_num > A_num`).
    pub fn reads(&self) -> u32 {
        self.a_num.saturating_sub(self.wr_num)
    }

    /// The window length the counters are sized for.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The protection mode.
    pub fn mode(&self) -> ProtectionMode {
        self.mode
    }

    /// The stored check word.
    pub fn check(&self) -> u64 {
        self.check
    }

    /// Bits per counter: `⌈log₂(window + 1)⌉`.
    pub fn counter_bits(&self) -> u32 {
        32 - self.window.leading_zeros()
    }

    /// Protected data bits: both counters packed.
    pub fn data_bits(&self) -> u32 {
        2 * self.counter_bits()
    }

    /// Check bits stored alongside the counters under this mode.
    pub fn check_storage_bits(&self) -> u32 {
        self.mode.check_bits(self.data_bits())
    }

    /// Total metadata storage: counter bits plus check bits.
    pub fn storage_bits(&self) -> u32 {
        self.data_bits() + self.check_storage_bits()
    }

    /// Records one access; returns `true` when the window is full and
    /// the caller should run the predictor and [`reset`](Self::reset).
    ///
    /// Unlike [`AccessHistory::record`] this never panics: an injected
    /// counter upset can push `A_num` to (or past) the window boundary
    /// without a reset, and a soft error must not abort the simulator.
    /// Counters saturate at their physical width; an upset-inflated
    /// `A_num` simply fires the window early — exactly the silent
    /// prediction skew the protection modes exist to catch.
    pub fn record(&mut self, is_write: bool) -> bool {
        let cap = ((1u64 << self.counter_bits()) - 1) as u32;
        self.a_num = self.a_num.saturating_add(1).min(cap);
        if is_write {
            self.wr_num = self.wr_num.saturating_add(1).min(cap);
        }
        self.recompute();
        self.a_num >= self.window
    }

    /// Clears both counters and recomputes the check bits.
    pub fn reset(&mut self) {
        self.a_num = 0;
        self.wr_num = 0;
        self.recompute();
    }

    /// Soft error: flips packed counter bit `bit` *without* updating the
    /// check bits. Bits `0..counter_bits` land in `A_num`, the rest in
    /// `Wr_num`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not a stored counter bit.
    pub fn upset_bit(&mut self, bit: u32) {
        assert!(
            bit < self.data_bits(),
            "history bit {bit} out of range for {}-bit counters",
            self.counter_bits()
        );
        let c = self.counter_bits();
        if bit < c {
            self.a_num ^= 1 << bit;
        } else {
            self.wr_num ^= 1 << (bit - c);
        }
    }

    /// Soft error: flips check bit `bit` *without* updating anything
    /// else.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not a stored check bit under this mode.
    pub fn upset_check(&mut self, bit: u32) {
        assert!(
            bit < self.check_storage_bits(),
            "check bit {bit} out of range for {} mode",
            self.mode
        );
        self.check ^= 1 << bit;
    }

    /// Verifies the check bits against the counters, repairing them when
    /// the code allows it. Semantics mirror
    /// [`ProtectedDirectionBits::verify_and_repair`]; here a repaired
    /// data upset restores the counters themselves, so there is nothing
    /// further for the caller to roll back.
    pub fn verify_and_repair(&mut self) -> ProtectionVerdict {
        let verdict = self.verdict();
        match verdict {
            ProtectionVerdict::CorrectedData(bit) => {
                self.upset_bit(bit); // flip it back
                self.recompute();
            }
            ProtectionVerdict::CorrectedCheck => self.recompute(),
            ProtectionVerdict::Clean | ProtectionVerdict::Uncorrectable => {}
        }
        verdict
    }

    /// The decoder's verdict without mutating anything.
    pub fn verdict(&self) -> ProtectionVerdict {
        code_verdict(self.mode, self.packed(), self.data_bits(), self.check)
    }

    fn packed(&self) -> u64 {
        let c = self.counter_bits();
        let mask = (1u64 << c) - 1;
        (u64::from(self.a_num) & mask) | (u64::from(self.wr_num) & mask) << c
    }

    fn recompute(&mut self) {
        self.check = self.mode.encode(self.packed(), self.data_bits());
    }
}

impl fmt::Display for ProtectedHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "A={}/{} Wr={} [{}]",
            self.a_num, self.window, self.wr_num, self.mode
        )
    }
}

impl fmt::Display for ProtectedDirectionBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.dirs, self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the smallest `r` with `2^r >= data_bits + r + 1`, by
    /// search.
    fn hamming_parity_bits_by_search(data_bits: u32) -> u32 {
        let mut r = 0u32;
        while (1u32 << r) < data_bits + r + 1 {
            r += 1;
        }
        r
    }

    /// Reference: the 1-based codeword position of data bit `i`, the
    /// `(i + 1)`-th non-power-of-two position, by search.
    fn data_position(i: u32) -> u32 {
        let mut pos = 1u32;
        let mut seen = 0u32;
        loop {
            if !pos.is_power_of_two() {
                if seen == i {
                    return pos;
                }
                seen += 1;
            }
            pos += 1;
        }
    }

    /// Reference encoder: each set data bit's position, bit by bit, into
    /// the Hamming parities; overall parity over the full mask.
    fn reference_secded_encode(mask: u64, data_bits: u32) -> u64 {
        let r = hamming_parity_bits_by_search(data_bits);
        let mut parities = 0u64;
        for i in 0..data_bits {
            if mask >> i & 1 == 1 {
                let pos = data_position(i);
                for j in 0..r {
                    if pos >> j & 1 == 1 {
                        parities ^= 1 << j;
                    }
                }
            }
        }
        let overall = (mask.count_ones() + parities.count_ones()) & 1;
        parities | (u64::from(overall) << r)
    }

    /// SplitMix64: a seeded mask stream for the codec oracle.
    fn next_mask(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The masks the oracle checks at width `data_bits`: every mask up to
    /// 12 bits, seeded random ones above, and masks with stray bits set
    /// above `data_bits`.
    fn oracle_masks(data_bits: u32, state: &mut u64) -> Vec<u64> {
        let live = u64::MAX >> (64 - data_bits);
        let mut masks: Vec<u64> = if data_bits <= 12 {
            (0..=live).collect()
        } else {
            (0..256).map(|_| next_mask(state) & live).collect()
        };
        masks.extend([0, live, 0x5A5A_5A5A_5A5A_5A5A & live]);
        if data_bits < 64 {
            masks.extend((0..16).map(|_| next_mask(state) | !live));
        }
        masks
    }

    #[test]
    fn tables_match_the_search_reference() {
        for k in 0..=64 {
            assert_eq!(
                hamming_parity_bits(k),
                hamming_parity_bits_by_search(k),
                "k={k}"
            );
        }
        for i in 0..64 {
            assert_eq!(
                u32::from(DATA_POSITIONS[i as usize]),
                data_position(i),
                "i={i}"
            );
        }
    }

    #[test]
    fn secded_codec_matches_the_loop_reference() {
        let mut state = 0x5EC_DED;
        for data_bits in 1..=64u32 {
            let r = hamming_parity_bits(data_bits);
            let check_bits = ProtectionMode::Secded.check_bits(data_bits);
            let masks = oracle_masks(data_bits, &mut state);
            for (n, &mask) in masks.iter().enumerate() {
                let check = ProtectionMode::Secded.encode(mask, data_bits);
                assert_eq!(
                    check,
                    reference_secded_encode(mask, data_bits),
                    "data_bits={data_bits} mask={mask:#x}"
                );
                let verdict =
                    |data, check| code_verdict(ProtectionMode::Secded, data, data_bits, check);
                assert_eq!(verdict(mask, check), ProtectionVerdict::Clean);
                for bit in 0..data_bits {
                    assert_eq!(
                        verdict(mask ^ 1 << bit, check),
                        ProtectionVerdict::CorrectedData(bit),
                        "data_bits={data_bits} mask={mask:#x} data upset {bit}"
                    );
                }
                for bit in 0..check_bits {
                    assert_eq!(
                        verdict(mask, check ^ 1 << bit),
                        ProtectionVerdict::CorrectedCheck,
                        "data_bits={data_bits} mask={mask:#x} check upset {bit}"
                    );
                }
                // Sampled double upsets: data+data, data+check,
                // check+check (the overall bit included).
                let a = (n as u32 * 7) % data_bits;
                let b = (a + 1 + n as u32 % (data_bits.max(2) - 1)) % data_bits;
                let c = n as u32 % (r + 1);
                let d = (c + 1) % (r + 1);
                if a != b {
                    assert_eq!(
                        verdict(mask ^ 1 << a ^ 1 << b, check),
                        ProtectionVerdict::Uncorrectable,
                        "data_bits={data_bits} mask={mask:#x} data upsets {a},{b}"
                    );
                }
                assert_eq!(
                    verdict(mask ^ 1 << a, check ^ 1 << c),
                    ProtectionVerdict::Uncorrectable,
                    "data_bits={data_bits} mask={mask:#x} data {a} + check {c}"
                );
                assert_eq!(
                    verdict(mask, check ^ 1 << c ^ 1 << d),
                    ProtectionVerdict::Uncorrectable,
                    "data_bits={data_bits} mask={mask:#x} check upsets {c},{d}"
                );
            }
        }
    }

    #[test]
    fn secded_check_words_are_pinned() {
        // Printed by the per-bit loop encoder; check words are stored in
        // `.ctrs` checkpoints, so none may move.
        for (mask, data_bits, check) in [
            (0x0, 1, 0x0),
            (0x1, 1, 0x7),
            (0xA5, 8, 0x3),
            (0xFF, 8, 0x3),
            (0xF0F0, 8, 0x14),
            (0x3FF, 10, 0x0),
            (0xABC, 12, 0x31),
            (0x1234, 13, 0x19),
            (0xDEAD_BEEF, 32, 0x63),
            (0x5A5A_5A5A_5A5A_5A5A, 64, 0x2E),
            (u64::MAX, 64, 0xFF),
            (0x8000_0000_0000_0001, 64, 0x44),
        ] {
            assert_eq!(
                ProtectionMode::Secded.encode(mask, data_bits),
                check,
                "mask={mask:#x} data_bits={data_bits}"
            );
        }
    }

    #[test]
    fn check_bit_counts_match_theory() {
        // Parity: always 1. SECDED: r Hamming bits + overall.
        assert_eq!(ProtectionMode::None.check_bits(8), 0);
        assert_eq!(ProtectionMode::Parity.check_bits(8), 1);
        assert_eq!(ProtectionMode::Secded.check_bits(1), 3); // r=2
        assert_eq!(ProtectionMode::Secded.check_bits(4), 4); // r=3
        assert_eq!(ProtectionMode::Secded.check_bits(8), 5); // r=4
        assert_eq!(ProtectionMode::Secded.check_bits(11), 5); // r=4
        assert_eq!(ProtectionMode::Secded.check_bits(64), 8); // r=7
    }

    #[test]
    fn data_positions_skip_parity_slots() {
        // Codeword positions 3, 5, 6, 7, 9, ... carry data.
        assert_eq!(data_position(0), 3);
        assert_eq!(data_position(1), 5);
        assert_eq!(data_position(2), 6);
        assert_eq!(data_position(3), 7);
        assert_eq!(data_position(4), 9);
        for i in 0..64 {
            let pos = data_position(i);
            assert_eq!(data_index_at(pos, 64, 7), Some(i));
        }
        assert_eq!(data_index_at(4, 64, 7), None, "parity position");
        assert_eq!(data_index_at(0, 64, 7), None);
        assert_eq!(data_index_at(72, 64, 7), None, "beyond the codeword");
    }

    #[test]
    fn parity_detects_single_upsets_only() {
        let mut p = ProtectedDirectionBits::new(
            DirectionBits::from_mask(0b1010, 8),
            ProtectionMode::Parity,
        );
        assert_eq!(p.verify_and_repair(), ProtectionVerdict::Clean);
        p.upset_direction(0);
        assert_eq!(p.verify_and_repair(), ProtectionVerdict::Uncorrectable);
        // A second upset cancels the parity: the classic blind spot.
        p.upset_direction(5);
        assert_eq!(p.verify_and_repair(), ProtectionVerdict::Clean);
    }

    #[test]
    fn parity_covers_its_own_check_bit() {
        let mut p = ProtectedDirectionBits::all_normal(8, ProtectionMode::Parity);
        p.upset_check(0);
        assert_eq!(p.verify_and_repair(), ProtectionVerdict::Uncorrectable);
    }

    #[test]
    fn secded_corrects_any_single_direction_upset() {
        for partitions in [1u32, 3, 8, 13, 64] {
            for bit in 0..partitions {
                let mask = 0x5A5A_5A5A_5A5A_5A5A
                    & if partitions == 64 {
                        u64::MAX
                    } else {
                        (1 << partitions) - 1
                    };
                let reference = DirectionBits::from_mask(mask, partitions);
                let mut p = ProtectedDirectionBits::new(reference, ProtectionMode::Secded);
                p.upset_direction(bit);
                assert_eq!(
                    p.verify_and_repair(),
                    ProtectionVerdict::CorrectedData(bit),
                    "partitions={partitions} bit={bit}"
                );
                assert_eq!(*p.bits(), reference, "repair must restore the vector");
                assert_eq!(p.verify_and_repair(), ProtectionVerdict::Clean);
            }
        }
    }

    #[test]
    fn secded_corrects_check_bit_upsets() {
        for bit in 0..ProtectionMode::Secded.check_bits(8) {
            let mut p = ProtectedDirectionBits::new(
                DirectionBits::from_mask(0b0110_0001, 8),
                ProtectionMode::Secded,
            );
            let reference = *p.bits();
            p.upset_check(bit);
            assert_eq!(
                p.verify_and_repair(),
                ProtectionVerdict::CorrectedCheck,
                "check bit {bit}"
            );
            assert_eq!(*p.bits(), reference, "data was never wrong");
            assert_eq!(p.verify_and_repair(), ProtectionVerdict::Clean);
        }
    }

    #[test]
    fn secded_detects_double_upsets() {
        let mut p = ProtectedDirectionBits::all_normal(8, ProtectionMode::Secded);
        p.upset_direction(1);
        p.upset_direction(6);
        assert_eq!(p.verify_and_repair(), ProtectionVerdict::Uncorrectable);
        // Mixed data + check double upsets are detected too.
        let mut q = ProtectedDirectionBits::all_normal(8, ProtectionMode::Secded);
        q.upset_direction(3);
        q.upset_check(0);
        assert_eq!(q.verify_and_repair(), ProtectionVerdict::Uncorrectable);
    }

    #[test]
    fn legal_updates_keep_the_code_clean() {
        let mut p = ProtectedDirectionBits::all_normal(8, ProtectionMode::Secded);
        p.set(2, EncodingDirection::Inverted);
        p.toggle(7);
        p.apply_flips(0b0001_1000);
        assert_eq!(p.verdict(), ProtectionVerdict::Clean);
        p.normalize();
        assert!(p.all_normal_dirs());
        assert_eq!(p.verdict(), ProtectionVerdict::Clean);
    }

    #[test]
    fn storage_accounting() {
        let p = ProtectedDirectionBits::all_normal(8, ProtectionMode::Secded);
        assert_eq!(p.storage_bits(), 8 + 5);
        assert_eq!(p.check_storage_bits(), 5);
        let none = ProtectedDirectionBits::all_normal(8, ProtectionMode::None);
        assert_eq!(none.storage_bits(), 8);
        assert_eq!(none.verdict(), ProtectionVerdict::Clean);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn upsetting_missing_check_bit_panics() {
        ProtectedDirectionBits::all_normal(8, ProtectionMode::Parity).upset_check(1);
    }

    #[test]
    fn display_names_mode() {
        let p = ProtectedDirectionBits::all_normal(4, ProtectionMode::Parity);
        assert_eq!(p.to_string(), "0000 [parity]");
    }

    #[test]
    fn history_tracks_plain_counters_under_legal_updates() {
        let mut plain = AccessHistory::new();
        let mut protected = ProtectedHistory::new(15, ProtectionMode::Secded);
        for i in 0..15u32 {
            let done_plain = plain.record(i % 4 == 0, 15);
            let done_prot = protected.record(i % 4 == 0);
            assert_eq!(done_plain, done_prot, "access {i}");
            assert_eq!(plain.accesses(), protected.accesses());
            assert_eq!(plain.writes(), protected.writes());
            assert_eq!(plain.reads(), protected.reads());
            assert_eq!(protected.verdict(), ProtectionVerdict::Clean);
        }
        protected.reset();
        plain.reset();
        assert_eq!(protected.to_history(), plain);
    }

    #[test]
    fn history_secded_corrects_any_single_counter_upset() {
        for window in [7u32, 15, 63] {
            let mut reference = ProtectedHistory::new(window, ProtectionMode::Secded);
            for i in 0..window / 2 {
                reference.record(i % 3 == 0);
            }
            for bit in 0..reference.data_bits() {
                let mut h = reference;
                h.upset_bit(bit);
                assert_eq!(
                    h.verify_and_repair(),
                    ProtectionVerdict::CorrectedData(bit),
                    "window={window} bit={bit}"
                );
                assert_eq!(h, reference, "repair must restore the counters");
            }
            for bit in 0..reference.check_storage_bits() {
                let mut h = reference;
                h.upset_check(bit);
                assert_eq!(
                    h.verify_and_repair(),
                    ProtectionVerdict::CorrectedCheck,
                    "window={window} check bit={bit}"
                );
                assert_eq!(h, reference);
            }
        }
    }

    #[test]
    fn history_parity_detects_single_upsets_only() {
        let mut h = ProtectedHistory::new(15, ProtectionMode::Parity);
        h.record(true);
        h.upset_bit(2);
        assert_eq!(h.verify_and_repair(), ProtectionVerdict::Uncorrectable);
        h.upset_bit(5); // second upset cancels the parity: the blind spot
        assert_eq!(h.verify_and_repair(), ProtectionVerdict::Clean);
    }

    #[test]
    fn history_unprotected_upsets_are_silent() {
        let mut h = ProtectedHistory::new(15, ProtectionMode::None);
        h.record(false);
        h.upset_bit(3); // A_num: 1 -> 9
        assert_eq!(h.accesses(), 9);
        assert_eq!(h.verify_and_repair(), ProtectionVerdict::Clean, "silent");
        assert_eq!(h.accesses(), 9, "nothing was repaired");
    }

    #[test]
    fn history_record_never_panics_after_upsets() {
        // An upset can push A_num past the window with no reset; record
        // must saturate and fire the window, not panic like the plain
        // AccessHistory contract would.
        let mut h = ProtectedHistory::new(15, ProtectionMode::None);
        h.upset_bit(3); // A_num = 8
        h.upset_bit(2); // A_num = 12
        h.upset_bit(1); // A_num = 14
        assert!(h.record(false), "A_num reaches 15: window fires");
        assert!(h.record(false), "saturated at 15, still firing");
        assert_eq!(h.accesses(), 15);
        // Wr_num upsets can exceed A_num; reads() saturates.
        let mut w = ProtectedHistory::new(15, ProtectionMode::None);
        w.upset_bit(w.counter_bits() + 3); // Wr_num = 8
        assert_eq!(w.reads(), 0);
    }

    #[test]
    fn history_storage_accounting() {
        // W=15: two 4-bit counters -> 8 data bits, same code sizes as an
        // 8-partition direction vector.
        let h = ProtectedHistory::new(15, ProtectionMode::Secded);
        assert_eq!(h.data_bits(), AccessHistory::storage_bits(15));
        assert_eq!(h.check_storage_bits(), 5);
        assert_eq!(h.storage_bits(), 13);
        assert_eq!(
            ProtectedHistory::new(15, ProtectionMode::None).storage_bits(),
            8
        );
    }

    #[test]
    fn history_from_raw_round_trips() {
        let plain = AccessHistory::from_raw(9, 4);
        let h = ProtectedHistory::from_history(plain, 15, ProtectionMode::Secded);
        assert_eq!(h.verdict(), ProtectionVerdict::Clean);
        assert_eq!(h.to_history(), plain);
        assert_eq!(h.to_string(), "A=9/15 Wr=4 [secded]");
    }
}
