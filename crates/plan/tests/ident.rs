//! `Ident` behaves exactly like the `String` it replaces: it round trips
//! every string, stays inline up to `INLINE_CAP` bytes, and compares,
//! orders, hashes and formats as `str` does.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use wmp_plan::query::{Ident, INLINE_CAP};

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Checks one string against every `str` behaviour `Ident` promises.
fn assert_like_string(s: &str) {
    let id = Ident::from(s);
    assert_eq!(id.as_str(), s);
    assert_eq!(&*id, s);
    assert_eq!(id.is_heap(), s.len() > INLINE_CAP, "{s:?}");
    assert_eq!(Ident::from(s.to_string()), id);
    assert_eq!(hash_of(&id), hash_of(s));
    assert_eq!(format!("{id}"), s);
    assert_eq!(format!("{id:?}"), format!("{s:?}"));
    assert_eq!(format!("[{id:>30}|{id:<4.2}]"), format!("[{s:>30}|{s:<4.2}]"));
}

#[test]
fn same_size_as_string() {
    assert_eq!(std::mem::size_of::<Ident>(), std::mem::size_of::<String>());
}

#[test]
fn boundary_strings_round_trip() {
    let a = |n: usize| "a".repeat(n);
    let cases = [
        String::new(),
        "household_demographics".to_string(), // 22 bytes: inline
        "household_demographics_".to_string(), // 23 bytes: heap
        a(20) + "é",                          // 22 bytes, the last char two wide
        a(21) + "é",                          // 23 bytes: the char straddles the limit
        a(19) + "€",
        a(20) + "€",
        a(18) + "😀",
        a(19) + "😀",
        a(21) + "😀",
        "it's \"quoted\"\n\t\\".to_string(),
        "'%ab%' AND 'a much longer literal that is kept on the heap'".to_string(),
    ];
    for s in &cases {
        assert_like_string(s);
    }
    assert!(!Ident::from(a(20) + "é").is_heap());
    assert!(Ident::from(a(21) + "é").is_heap());
    assert_eq!(Ident::default(), Ident::from(""));
}

/// Strings weighted towards the inline limit: mostly ASCII, with two-,
/// three- and four-byte characters and arbitrary code points mixed in.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..8, 0u32..0x11_0000), 0..32).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(kind, code)| match kind {
                0..=3 => char::from(b'a' + (code % 26) as u8),
                4 => 'é',
                5 => '€',
                6 => '😀',
                _ => char::from_u32(code).unwrap_or('?'),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_strings_behave_like_string(s in arb_string()) {
        assert_like_string(&s);
    }

    #[test]
    fn eq_and_ord_agree_with_str(a in arb_string(), b in arb_string()) {
        let (ia, ib) = (Ident::from(a.as_str()), Ident::from(b.as_str()));
        prop_assert_eq!(ia == ib, a == b);
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
        prop_assert_eq!(ia.partial_cmp(&ib), a.partial_cmp(&b));
        prop_assert_eq!(hash_of(&ia) == hash_of(&ib), hash_of(&a) == hash_of(&b));
        // A shared prefix exercises comparisons across the inline limit.
        let (pa, pb) = (format!("{b}{a}"), format!("{b}{b}"));
        prop_assert_eq!(Ident::from(pa.as_str()).cmp(&Ident::from(pb.as_str())), pa.cmp(&pb));
    }
}
