//! Byte-class sets: 256-bit membership sets used by the regex AST, NFA
//! transitions, and DFA byte-class compression.

/// A set of bytes represented as a 256-bit bitmap.
///
/// # Example
///
/// ```
/// use yala_rxp::ClassSet;
/// let digits = ClassSet::range(b'0', b'9');
/// assert!(digits.contains(b'5'));
/// assert!(!digits.contains(b'a'));
/// assert_eq!(digits.len(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClassSet {
    bits: [u64; 4],
}

impl ClassSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The set of all 256 byte values (regex `.` in DOTALL mode; payload
    /// scanning treats `.` as any byte, as hardware scan engines do).
    pub fn any() -> Self {
        Self {
            bits: [u64::MAX; 4],
        }
    }

    /// A single byte.
    pub fn single(b: u8) -> Self {
        let mut s = Self::empty();
        s.insert(b);
        s
    }

    /// The inclusive range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(lo: u8, hi: u8) -> Self {
        assert!(lo <= hi, "inverted byte range");
        let mut s = Self::empty();
        for b in lo..=hi {
            s.insert(b);
        }
        s
    }

    /// Inserts one byte.
    pub fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Whether `b` is in the set.
    pub fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        for i in 0..4 {
            out.bits[i] |= other.bits[i];
        }
        out
    }

    /// Set complement.
    pub fn negate(&self) -> Self {
        let mut out = *self;
        for i in 0..4 {
            out.bits[i] = !out.bits[i];
        }
        out
    }

    /// Number of bytes in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Case-folds the set: for every ASCII letter present, inserts the other
    /// case as well (used by the `(?i)` flag).
    pub fn case_fold(&self) -> Self {
        let mut out = *self;
        for b in b'a'..=b'z' {
            if self.contains(b) {
                out.insert(b - 32);
            }
        }
        for b in b'A'..=b'Z' {
            if self.contains(b) {
                out.insert(b + 32);
            }
        }
        out
    }

    /// Smallest member byte, if any.
    pub fn first_byte(&self) -> Option<u8> {
        (0u16..256).map(|b| b as u8).find(|&b| self.contains(b))
    }

    /// Iterates over member bytes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..256).filter_map(move |b| {
            let b = b as u8;
            self.contains(b).then_some(b)
        })
    }
}

/// Builds the `\d` / `\w` / `\s` style predefined classes.
pub fn predefined(name: u8) -> Option<ClassSet> {
    let digits = ClassSet::range(b'0', b'9');
    let word = digits
        .union(&ClassSet::range(b'a', b'z'))
        .union(&ClassSet::range(b'A', b'Z'))
        .union(&ClassSet::single(b'_'));
    let mut space = ClassSet::empty();
    for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
        space.insert(b);
    }
    Some(match name {
        b'd' => digits,
        b'D' => digits.negate(),
        b'w' => word,
        b'W' => word.negate(),
        b's' => space,
        b'S' => space.negate(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_contains() {
        let s = ClassSet::single(b'x');
        assert!(s.contains(b'x'));
        assert!(!s.contains(b'y'));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn range_bounds_inclusive() {
        let s = ClassSet::range(b'a', b'c');
        assert!(s.contains(b'a') && s.contains(b'b') && s.contains(b'c'));
        assert!(!s.contains(b'd'));
    }

    #[test]
    fn negate_complements() {
        let s = ClassSet::range(0, 127).negate();
        assert!(!s.contains(5));
        assert!(s.contains(200));
        assert_eq!(s.len(), 128);
    }

    #[test]
    fn union_combines() {
        let s = ClassSet::single(b'a').union(&ClassSet::single(b'z'));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn any_has_all() {
        assert_eq!(ClassSet::any().len(), 256);
    }

    #[test]
    fn case_fold_adds_both_cases() {
        let s = ClassSet::range(b'a', b'c').case_fold();
        assert!(s.contains(b'A') && s.contains(b'B') && s.contains(b'C'));
        assert!(s.contains(b'a'));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn predefined_classes() {
        assert!(predefined(b'd').unwrap().contains(b'7'));
        assert!(!predefined(b'd').unwrap().contains(b'x'));
        assert!(predefined(b'w').unwrap().contains(b'_'));
        assert!(predefined(b's').unwrap().contains(b' '));
        assert!(predefined(b'S').unwrap().contains(b'q'));
        assert!(predefined(b'q').is_none());
    }

    #[test]
    fn iter_ascending() {
        let s = ClassSet::range(b'0', b'2');
        let v: Vec<u8> = s.iter().collect();
        assert_eq!(v, vec![b'0', b'1', b'2']);
    }
}
