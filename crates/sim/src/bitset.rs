//! Flat bit tables over user ids, one row per page.
//!
//! A saturated page is known to *every* user, so per-page awareness and
//! like sets grow to the full population. Hash sets at that density cost
//! ~50 bytes per member; a bitset costs one bit. With thousands of pages
//! times thousands of users this is the difference between megabytes and
//! gigabytes. Every page's set has the same capacity, so the sets of all
//! pages are the rows of one table in one allocation: page `p`'s row is
//! words `p·stride..(p+1)·stride`, with no per-page heap object and no
//! pointer to follow, and a birth appends a row.

/// Test bit `i` of a row.
#[inline]
pub(crate) fn test_bit(row: &[u64], i: u32) -> bool {
    (row[i as usize / 64] >> (i % 64)) & 1 == 1
}

/// Set bit `i` of a row; returns true if it was previously clear.
#[inline]
pub(crate) fn set_bit(row: &mut [u64], i: u32) -> bool {
    let mask = 1u64 << (i % 64);
    let word = &mut row[i as usize / 64];
    let was_clear = *word & mask == 0;
    *word |= mask;
    was_clear
}

/// Rows of `width` bits each, all clear when appended.
#[derive(Debug, Clone)]
pub(crate) struct BitTable {
    words: Vec<u64>,
    /// Bits per row.
    width: usize,
}

impl BitTable {
    /// A table with no rows, able to hold ids `0..width` in each.
    pub fn new(width: usize) -> Self {
        BitTable {
            words: Vec::new(),
            width,
        }
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.width.div_ceil(64)
    }

    /// Append an all-clear row.
    pub fn push_row(&mut self) {
        self.words.resize(self.words.len() + self.stride(), 0);
    }

    /// Row `r`.
    #[cfg(test)]
    pub fn row(&self, r: usize) -> &[u64] {
        let stride = self.stride();
        &self.words[r * stride..(r + 1) * stride]
    }

    /// Every row, back to back, [`stride`](Self::stride) words each —
    /// what the visit phase splits among its workers.
    pub fn rows_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Set bit `i` of row `r`; returns true if it was previously clear.
    #[inline]
    pub fn set(&mut self, r: usize, i: u32) -> bool {
        debug_assert!((i as usize) < self.width, "bit {i} of {}", self.width);
        let stride = self.stride();
        set_bit(&mut self.words[r * stride..(r + 1) * stride], i)
    }

    /// Clear bit `i` of row `r`; returns true if it was previously set.
    #[inline]
    pub fn clear(&mut self, r: usize, i: u32) -> bool {
        debug_assert!((i as usize) < self.width, "bit {i} of {}", self.width);
        let mask = 1u64 << (i % 64);
        let word = r * self.stride() + i as usize / 64;
        let was_set = self.words[word] & mask != 0;
        self.words[word] &= !mask;
        was_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(row: &[u64]) -> u32 {
        row.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn bitset_set_get_clear() {
        let mut t = BitTable::new(130);
        assert_eq!(t.stride(), 3);
        t.push_row();
        t.push_row();
        assert!(!test_bit(t.row(1), 0));
        assert!(t.set(1, 0));
        assert!(!t.set(1, 0));
        assert!(test_bit(t.row(1), 0));
        assert!(t.set(1, 129));
        assert_eq!(count(t.row(1)), 2);
        assert!(t.clear(1, 0));
        assert!(!t.clear(1, 0));
        assert_eq!(count(t.row(1)), 1);
        // the neighbouring row never moved, and a new one starts clear
        assert_eq!(count(t.row(0)), 0);
        t.push_row();
        assert_eq!(count(t.row(2)), 0);
        assert!(test_bit(t.row(1), 129));
    }

    #[test]
    fn bitset_word_boundaries() {
        let mut t = BitTable::new(128);
        assert_eq!(t.stride(), 2);
        t.push_row();
        t.push_row();
        for i in [63u32, 64, 127] {
            assert!(t.set(0, i));
            assert!(test_bit(t.row(0), i));
        }
        assert_eq!(count(t.row(0)), 3);
        assert_eq!(count(t.row(1)), 0);
        // the free functions are the same operations on a borrowed row
        let stride = t.stride();
        let row = &mut t.rows_mut()[stride..];
        assert!(set_bit(row, 64));
        assert!(!set_bit(row, 64));
        assert_eq!(t.row(1), &[0, 1]);
    }
}
