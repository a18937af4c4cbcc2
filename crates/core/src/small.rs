//! Short lists and short strings stored in place.
//!
//! A design point is built, estimated and dropped in a few microseconds,
//! and almost every list a node carries — operands, address dimensions,
//! tile extents, counter dimensions, stages — holds one to four items
//! (DESIGN.md, "Node memory layout"). [`SmallList`] keeps up to `N` items
//! inside the value and moves to a `Vec` only past that; [`ShortStr`]
//! does the same for debug and parameter names. Both read as the slice /
//! `str` they hold: equality, hashing and `Debug` do not see which
//! representation is in use.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A list that stores up to `N` items in place and spills to the heap
/// beyond that.
///
/// Dereferences to `[T]`, so everything a slice offers (`len`, `iter`,
/// indexing, `to_vec`, `contains`, …) works unchanged.
///
/// # Examples
///
/// ```
/// use dhdl_core::SmallList;
///
/// let mut l: SmallList<u64, 3> = [1, 2, 3].into();
/// assert!(!l.spilled());
/// l.push(4);
/// assert!(l.spilled());
/// assert_eq!(&l[..], &[1, 2, 3, 4]);
/// assert_eq!(l, [1, 2, 3, 4]);
/// ```
#[derive(Clone)]
pub struct SmallList<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` are the list; the rest hold `T::default()`.
    Inline {
        len: u8,
        items: [T; N],
    },
    Spilled(Vec<T>),
}

impl<T: Default, const N: usize> SmallList<T, N> {
    /// Checked at compile time per instantiation: the in-place length is
    /// a `u8`.
    const FITS: () = assert!(
        N <= u8::MAX as usize,
        "SmallList holds at most 255 items in place"
    );

    /// An empty list.
    pub fn new() -> Self {
        let () = Self::FITS;
        SmallList(Repr::Inline {
            len: 0,
            items: std::array::from_fn(|_| T::default()),
        })
    }

    /// Whether the items live on the heap. A list that spilled stays
    /// spilled when it shrinks again.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Move the in-place items into a `Vec` with room for `extra` more.
    fn spill(&mut self, extra: usize) -> &mut Vec<T> {
        if let Repr::Inline { len, items } = &mut self.0 {
            let mut v = Vec::with_capacity(*len as usize + extra.max(N));
            v.extend(items[..*len as usize].iter_mut().map(std::mem::take));
            self.0 = Repr::Spilled(v);
        }
        match &mut self.0 {
            Repr::Spilled(v) => v,
            Repr::Inline { .. } => unreachable!("just spilled"),
        }
    }

    /// Append an item.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = item;
                *len += 1;
            }
            _ => self.spill(1).push(item),
        }
    }

    /// Insert an item at `index`, shifting everything after it.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, item: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < N => {
                let n = *len as usize;
                assert!(index <= n, "insertion index {index} out of range (len {n})");
                items[n] = item;
                items[index..=n].rotate_right(1);
                *len += 1;
            }
            _ => self.spill(1).insert(index, item),
        }
    }

    /// Remove and return the last item.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                *len = len.checked_sub(1)?;
                Some(std::mem::take(&mut items[*len as usize]))
            }
            Repr::Spilled(v) => v.pop(),
        }
    }

    /// Keep the first `len` items and drop the rest; no effect if the
    /// list is already that short.
    pub fn truncate(&mut self, len: usize) {
        while self.len() > len {
            self.pop();
        }
    }

    /// Keep only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&items[i]) {
                        items.swap(kept, i);
                        kept += 1;
                    }
                }
                for dropped in &mut items[kept..*len as usize] {
                    *dropped = T::default();
                }
                *len = kept as u8;
            }
            Repr::Spilled(v) => v.retain(keep),
        }
    }
}

impl<T: Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for SmallList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T, const N: usize> DerefMut for SmallList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T: Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<T: Default + Clone, const N: usize> From<&[T]> for SmallList<T, N> {
    fn from(items: &[T]) -> Self {
        if items.len() > N {
            return SmallList(Repr::Spilled(items.to_vec()));
        }
        items.iter().cloned().collect()
    }
}

impl<T: Default, const N: usize, const M: usize> From<[T; M]> for SmallList<T, N> {
    fn from(items: [T; M]) -> Self {
        items.into_iter().collect()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq, const N: usize> Eq for SmallList<T, N> {}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for SmallList<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self[..] == other[..]
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for SmallList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T: Hash, const N: usize> Hash for SmallList<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// Bytes a [`ShortStr`] holds in place: the value is as large as a
/// `String`.
const SHORT: usize = 22;

/// A string that stores up to 22 bytes in place and boxes longer text:
/// node names (`"aT"`, `"centroids"`), design names and parameter names
/// all fit.
///
/// Dereferences to `str`; equality, `Debug` and `Display` are the
/// `str`'s.
///
/// # Examples
///
/// ```
/// use dhdl_core::ShortStr;
///
/// let s = ShortStr::from("tileA");
/// assert_eq!(&*s, "tileA");
/// assert_eq!(format!("{s:?}"), "\"tileA\"");
/// assert_eq!(std::mem::size_of::<ShortStr>(), std::mem::size_of::<String>());
/// ```
#[derive(Clone)]
pub struct ShortStr(StrRepr);

#[derive(Clone)]
enum StrRepr {
    /// `bytes[..len]` is UTF-8 copied from a `str`.
    Inline {
        len: u8,
        bytes: [u8; SHORT],
    },
    Boxed(Box<str>),
}

impl ShortStr {
    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            StrRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("in-place bytes are copied from a str"),
            StrRepr::Boxed(s) => s,
        }
    }

    /// The text's bytes, without the UTF-8 check [`ShortStr::as_str`]
    /// pays for in-place text.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            StrRepr::Inline { len, bytes } => &bytes[..*len as usize],
            StrRepr::Boxed(s) => s.as_bytes(),
        }
    }
}

impl From<&str> for ShortStr {
    fn from(s: &str) -> Self {
        if s.len() > SHORT {
            return ShortStr(StrRepr::Boxed(s.into()));
        }
        let mut bytes = [0; SHORT];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        ShortStr(StrRepr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }
}

impl From<String> for ShortStr {
    fn from(s: String) -> Self {
        if s.len() > SHORT {
            ShortStr(StrRepr::Boxed(s.into_boxed_str()))
        } else {
            ShortStr::from(s.as_str())
        }
    }
}

impl Default for ShortStr {
    fn default() -> Self {
        ShortStr::from("")
    }
}

impl Deref for ShortStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for ShortStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ShortStr {}

impl PartialEq<str> for ShortStr {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for ShortStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_str().fmt(f)
    }
}

impl fmt::Display for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_str().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    type L = SmallList<u32, 3>;

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn the_list_spills_at_n_plus_one_and_reads_the_same_either_side() {
        let mut l = L::new();
        assert!(l.is_empty() && !l.spilled());
        for i in 0..3 {
            l.push(i);
        }
        assert!(!l.spilled(), "N items fit in place");
        assert_eq!(l, [0, 1, 2]);
        l.push(3);
        assert!(l.spilled(), "N + 1 items spill");
        assert_eq!(l, [0, 1, 2, 3]);
        // Constructors land on the same side of the boundary.
        assert!(!L::from(&[7, 8, 9][..]).spilled());
        assert!(L::from(&[7, 8, 9, 10][..]).spilled());
        assert!(!L::from([7, 8, 9]).spilled());
        assert!(L::from([7, 8, 9, 10]).spilled());
        assert!(!(0..3).collect::<L>().spilled());
        assert!((0..4).collect::<L>().spilled());
        assert_eq!((0..4).collect::<L>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pop_truncate_retain_and_insert_behave_as_on_a_vec() {
        for n in [3usize, 6] {
            let items: Vec<u32> = (0..n as u32).collect();
            let mut l = L::from(&items[..]);
            let mut v = items.clone();
            assert_eq!(l.pop(), v.pop());
            assert_eq!(l, v);
            l.retain(|x| x % 2 == 0);
            v.retain(|x| x % 2 == 0);
            assert_eq!(l, v);
            l.insert(1, 99);
            v.insert(1, 99);
            l.insert(0, 98);
            v.insert(0, 98);
            l.insert(l.len(), 97);
            v.insert(v.len(), 97);
            assert_eq!(l, v);
            l.truncate(1);
            v.truncate(1);
            assert_eq!(l, v);
            l.truncate(5);
            assert_eq!(l, v, "truncating to a longer length is a no-op");
            assert_eq!(l.pop(), Some(98));
            assert_eq!(l.pop(), None);
            assert_eq!(l.pop(), None);
        }
        // Inserting into a full in-place list spills it.
        let mut l = L::from([1, 2, 3]);
        l.insert(1, 9);
        assert!(l.spilled());
        assert_eq!(l, [1, 9, 2, 3]);
    }

    #[test]
    fn equality_hash_and_debug_are_the_slices() {
        let inline = L::from([1, 2]);
        // The same items, spilled: pushed past N and popped back.
        let mut spilled = L::from([1, 2, 3, 4]);
        spilled.truncate(2);
        assert!(spilled.spilled() && !inline.spilled());
        assert_eq!(inline, spilled);
        assert_ne!(inline, L::from([1, 2, 3]));
        let slice: &[u32] = &[1, 2];
        assert_eq!(hash_of(&inline), hash_of(&slice));
        assert_eq!(hash_of(&spilled), hash_of(&slice));
        assert_eq!(format!("{inline:?}"), format!("{slice:?}"));
        assert_eq!(format!("{spilled:?}"), "[1, 2]");
        // Items beyond the length never show, whatever was there before.
        let mut l = L::from([5, 6, 7]);
        l.retain(|&x| x == 7);
        assert_eq!(l, [7]);
        assert_eq!(l, L::from([7]));
    }

    #[test]
    fn lists_of_values_that_own_memory_move_their_items_out() {
        let mut l: SmallList<String, 2> = SmallList::new();
        l.push("a".into());
        l.push("b".into());
        l.push("c".into());
        assert_eq!(l.pop().as_deref(), Some("c"));
        l.retain(|s| s != "a");
        assert_eq!(l, ["b".to_string()]);
        let mut m: SmallList<String, 2> = ["x".to_string(), "y".to_string()].into();
        assert_eq!(m.pop().as_deref(), Some("y"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn short_strings_read_as_str_in_place_and_boxed() {
        let exactly = "x".repeat(SHORT);
        let over = "x".repeat(SHORT + 1);
        for text in ["", "aT", "centroids", "größe", &exactly, &over] {
            let s = ShortStr::from(text);
            assert_eq!(
                matches!(s.0, StrRepr::Boxed(_)),
                text.len() > SHORT,
                "{text}"
            );
            assert_eq!(s.as_str(), text);
            assert_eq!(s.as_bytes(), text.as_bytes());
            assert_eq!(s, text);
            assert_eq!(s, ShortStr::from(text.to_string()));
            assert_eq!(format!("{s:?}"), format!("{text:?}"));
            assert_eq!(format!("{s}"), text);
            assert_eq!(s.len(), text.len());
        }
        assert_eq!(ShortStr::default(), "");
        assert_eq!(std::mem::size_of::<ShortStr>(), 24);
        assert_eq!(std::mem::size_of::<Option<ShortStr>>(), 24);
    }
}
