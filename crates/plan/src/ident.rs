//! [`Ident`] — the string type of every name and literal in a
//! [`QuerySpec`](crate::QuerySpec).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Longest string, in bytes, an [`Ident`] holds without a heap block.
pub const INLINE_CAP: usize = 22;

/// An immutable string, 24 bytes like `String`, that keeps up to
/// [`INLINE_CAP`] bytes inline and a longer string in one heap block.
///
/// Every table, alias and column name of a query spec, and most of its
/// literals, fit inline: the longest generated TPC-DS identifier,
/// `household_demographics`, is exactly 22 bytes. The limit exists for the
/// serving engine's window-closing call, which drops the window's ten
/// records. With `String` fields a TPC-DS record held about 33 heap blocks,
/// and freeing them took most of that call; with `Ident` it holds about
/// five (its `Vec`s and its long literals).
///
/// It reads as a `str` (`Deref<Target = str>`), is built with `From<&str>`
/// or `From<String>`, and compares, orders, hashes and formats exactly as
/// the `str` it holds, so `{:?}` output and rendered SQL match `String`'s.
#[derive(Clone)]
pub struct Ident(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the string; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    Heap(Box<str>),
}

impl Ident {
    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Only `From<&str>` writes the inline bytes, so they are always
            // valid UTF-8 and the fallback is never taken.
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).unwrap_or_default()
            }
            Repr::Heap(s) => s,
        }
    }

    /// True when the string lives in a heap block (longer than
    /// [`INLINE_CAP`] bytes).
    pub fn is_heap(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// The string's bytes, without the UTF-8 check `as_str` makes; used
    /// where `str` compares bytewise.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }
}

impl Default for Ident {
    fn default() -> Self {
        Ident(Repr::Inline { len: 0, bytes: [0; INLINE_CAP] })
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        if s.len() <= INLINE_CAP {
            let mut bytes = [0; INLINE_CAP];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Ident(Repr::Inline { len: s.len() as u8, bytes })
        } else {
            Ident(Repr::Heap(s.into()))
        }
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        if s.len() <= INLINE_CAP {
            Ident::from(s.as_str())
        } else {
            Ident(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl Deref for Ident {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Ident {}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    /// Bytewise, which is how `str` orders.
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Ident {
    /// Hashes as the `str` it holds.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}
