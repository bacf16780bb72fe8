//! FNV-1a, the workspace's one stable hash.
//!
//! Every persisted or compared hash in the harness is FNV-1a: outcome and
//! compile-unit cache keys and plan fingerprints (128-bit, field
//! separated), file-body content hashes (128-bit, plain), journal and
//! disk-entry checksums (64-bit, plain), and generator-spec digests
//! (64-bit, field separated). Unlike `std`'s randomized hasher it is
//! stable across runs, processes and platforms, which is what lets a disk
//! entry or a journal written by one process be verified by another.

macro_rules! fnv1a {
    ($(#[$doc:meta])* $name:ident, $word:ty, $offset:expr, $prime:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name($word);

        impl $name {
            const OFFSET: $word = $offset;
            const PRIME: $word = $prime;

            pub fn new() -> Self {
                $name(Self::OFFSET)
            }

            /// Fold `bytes` into the hash, with no separator.
            pub fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 = (self.0 ^ <$word>::from(b)).wrapping_mul(Self::PRIME);
                }
            }

            /// Fold `bytes` in as one field: the bytes, then a `0xff`
            /// separator, so `("ab", "c")` and `("a", "bc")` differ.
            pub fn field(&mut self, bytes: &[u8]) {
                self.write(bytes);
                self.write(&[0xff]);
            }

            pub fn finish(self) -> $word {
                self.0
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

fnv1a!(
    /// 64-bit FNV-1a.
    Fnv64,
    u64,
    0xcbf29ce484222325,
    0x100000001b3
);

fnv1a!(
    /// 128-bit FNV-1a: wide enough that content-key collisions are not a
    /// practical concern.
    Fnv128,
    u128,
    0x6c62272e07bb014262b821756295c58d,
    0x0000000001000000000000000000013b
);

/// 64-bit FNV-1a over `bytes` (the frame checksum of journal records and
/// disk-cache entries).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// 128-bit FNV-1a over `bytes` (the content hash of a file body, which
/// every content key hashes in place of the body's text).
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_pinned() {
        // The published FNV-1a test vectors, plus the field-separated
        // constructions every key, fingerprint, checksum and digest in the
        // workspace is built from. A change here invalidates every disk
        // entry, journal and golden, so these values must never move.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);

        let fields64 = |fields: &[&[u8]]| {
            let mut h = Fnv64::new();
            fields.iter().for_each(|f| h.field(f));
            h.finish()
        };
        assert_eq!(fields64(&[b"ab", b"c"]), 0x20ba9b3025a8b421);
        assert_eq!(fields64(&[b"a", b"bc"]), 0xa0a3542c19b900ab);

        let fields128 = |fields: &[&[u8]]| {
            let mut h = Fnv128::new();
            fields.iter().for_each(|f| h.field(f));
            h.finish()
        };
        assert_eq!(fields128(&[]), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(fnv128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(fnv128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
        assert_eq!(fnv128(b"foobar"), 0x343e1662793c64bf6f0d3597ba446f18);
        assert_eq!(
            fields128(&[b"ab", b"c"]),
            0x32763e664083d94f70814487f805ad59
        );
        assert_eq!(
            fields128(&[b"a", b"bc"]),
            0x36cc24064d83d94f708145dd58651e3b
        );
    }
}
