//! Constant-time comparison helpers.
//!
//! Tag verification must not leak, via timing, how many prefix bytes of a
//! forged tag were correct — otherwise an attacker can forge tags byte by
//! byte. These helpers accumulate the difference across the whole input
//! before producing a single boolean.

/// Constant-time equality of two equal-length byte slices.
///
/// Returns `false` (fast path, no secret involved) if the lengths differ.
#[inline]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    // Map 0 -> true without a data-dependent branch on `diff`'s bits.
    ct_is_zero(diff)
}

/// Constant-time "is this byte zero".
#[inline]
fn ct_is_zero(x: u8) -> bool {
    // (x | -x) has its top bit set iff x != 0.
    let nonzero = ((x as i8 | (x as i8).wrapping_neg()) as u8) >> 7;
    nonzero == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"\x00", b"\x80"));
    }

    #[test]
    fn is_zero_all_bytes() {
        assert!(ct_is_zero(0));
        for x in 1..=255u8 {
            assert!(!ct_is_zero(x), "x={x}");
        }
    }
}
