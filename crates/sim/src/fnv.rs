//! 64-bit FNV-1a: the workspace's one stable content hash.
//!
//! The `cmat` key, the `cmat` fingerprint, artifact object ids, deck
//! hashes and the journal's content fingerprints all hash with it, so its
//! values are independent of std's unspecified `Hasher` implementations
//! and stable across builds and hosts.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Mix in `bytes`, in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Mix in the little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in the bits of `v` (little-endian), so `-0.0` and `0.0` differ.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash of everything mixed in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte slice.
///
/// ```
/// assert_eq!(xg_sim::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// let mut h = xg_sim::Fnv1a::new();
/// h.bytes(b"ab");
/// assert_eq!(h.finish(), xg_sim::fnv1a(b"ab"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}
