//! Offline shim for the `bytes` crate.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal re-implementation of the subset it uses: [`Bytes`], a cheaply
//! cloneable, immutable, contiguous byte buffer. As in the real crate, a
//! `Bytes` is a view: shared storage (one `Vec<u8>` behind an
//! [`std::sync::Arc`]) plus the `start..end` range it shows. [`Clone`],
//! [`Bytes::slice`] and `From<Vec<u8>>` copy no bytes; they share the
//! storage and narrow the range. Equality, ordering, hashing, `Debug` and
//! `Deref<Target = [u8]>` all act on the view, never on the storage behind
//! it. The one cost of sharing is the real crate's too: the storage lives
//! until the last view of any part of it is dropped.

#![forbid(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer: a `start..end` view of
/// shared storage.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Wraps a static byte slice (copied once; the real crate borrows, but
    /// the observable API is identical).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns the sub-buffer `range` of this one, sharing its storage: no
    /// byte is copied, and the result keeps the whole storage alive.
    ///
    /// # Panics
    ///
    /// When the range runs backwards or past the end of the buffer, as the
    /// real crate does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let from = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("range start overflows"),
            Bound::Unbounded => 0,
        };
        let to = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end overflows"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(from <= to, "range start {from} > range end {to}");
        assert!(to <= len, "range end {to} out of bounds for a buffer of {len} bytes");
        Bytes { data: Arc::clone(&self.data), start: self.start + from, end: self.start + to }
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector over as the storage, without copying it.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { start: 0, end: v.len(), data: Arc::new(v) }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        Bytes::from(Vec::from(v))
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "..{} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// Byte offset of `part`'s first byte from `whole`'s.
    fn offset(whole: &Bytes, part: &Bytes) -> usize {
        part.as_ptr() as usize - whole.as_ptr() as usize
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn from_vec_takes_the_vector_over() {
        let v = vec![9u8; 1000];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 1000);
        let boxed: Box<[u8]> = vec![1u8, 2].into_boxed_slice();
        let ptr = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ptr(), ptr);
        let s = String::from("shared");
        let ptr = s.as_ptr();
        assert_eq!(Bytes::from(s).as_ptr(), ptr);
    }

    #[test]
    fn slices_share_storage_at_their_offset() {
        let a = Bytes::from((0..=255u8).collect::<Vec<_>>());
        let s = a.slice(10..20);
        assert_eq!(offset(&a, &s), 10);
        assert_eq!(&s[..], &(10..20u8).collect::<Vec<_>>()[..]);
        // A slice of a slice is offset from the storage, not from zero.
        let t = s.slice(3..5);
        assert_eq!(offset(&a, &t), 13);
        assert_eq!(&t[..], &[13, 14]);
        // Every bound form.
        assert_eq!(offset(&a, &a.slice(..)), 0);
        assert_eq!(a.slice(..).len(), 256);
        assert_eq!(offset(&a, &a.slice(250..)), 250);
        assert_eq!(&a.slice(..=2)[..], &[0, 1, 2]);
        assert_eq!(offset(&s, &s.slice(10..)), 10);
        assert!(s.slice(10..).is_empty());
    }

    #[test]
    fn equality_order_hash_and_debug_act_on_the_view() {
        let a = Bytes::from(b"xxhelloyy".to_vec());
        let view = a.slice(2..7);
        let own = Bytes::from_static(b"hello");
        assert_eq!(view, own);
        assert_eq!(hash_of(&view), hash_of(&own));
        assert_eq!(view.cmp(&own), std::cmp::Ordering::Equal);
        assert!(view < a.slice(0..1), "\"hello\" sorts before \"x\"");
        assert_eq!(format!("{view:?}"), "b\"hello\"");
        assert_eq!(view, b"hello".to_vec());
        assert_eq!(view, &b"hello"[..]);
        assert_eq!(view.to_vec(), b"hello".to_vec());
        assert_eq!(view.clone().into_iter().collect::<Vec<_>>(), b"hello".to_vec());
        assert_eq!((&view).into_iter().count(), 5);
    }

    #[test]
    fn slice_and_compare() {
        let a = Bytes::from_static(b"hello world");
        assert_eq!(a.slice(0..5), Bytes::from_static(b"hello"));
        assert_eq!(a.len(), 11);
        assert!(!a.is_empty());
        assert_eq!(a.to_vec(), b"hello world".to_vec());
        assert!(Bytes::new().is_empty() && Bytes::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_view_panics() {
        // Past this view, even though the storage behind it is longer.
        let a = Bytes::from(vec![0u8; 16]).slice(0..4);
        let _ = a.slice(2..5);
    }

    #[test]
    #[should_panic(expected = "range start")]
    fn backwards_slice_panics() {
        let a = Bytes::from(vec![0u8; 16]);
        #[allow(clippy::reversed_empty_ranges)]
        let _ = a.slice(5..2);
    }
}
