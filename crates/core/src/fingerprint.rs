//! Engine fingerprinting and content hashing for the persistent proof
//! store.
//!
//! A cached proof trace is only sound to replay when the engine that
//! would re-search it is *semantically the same* engine that produced
//! it: the same trace format, the same checker contract, and the same
//! settings of every knob that can change which traces the search
//! emits. [`engine_fingerprint`] distils all of that into one stable
//! string; the proof store mixes it into every content address, so a
//! cache written by an older binary (or the same binary under different
//! semantics-affecting knobs) can never replay — the lookup simply
//! misses and the engine re-searches.
//!
//! The hash itself is a from-scratch SHA-256 ([`Sha256`]): the build
//! environment vendors no crypto crate, and a content-addressed store
//! wants a collision-resistant digest, not a fast checksum. The
//! implementation is the plain FIPS 180-4 compression function —
//! ~100 lines, no lookup beyond the round constants — and is pinned by
//! the standard test vectors below.

use std::fmt::Write as _;

/// The round constants of FIPS 180-4 §4.2.2.
const K: [u32; 64] = [
    0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5, 0x3956_c25b, 0x59f1_11f1, 0x923f_82a4,
    0xab1c_5ed5, 0xd807_aa98, 0x1283_5b01, 0x2431_85be, 0x550c_7dc3, 0x72be_5d74, 0x80de_b1fe,
    0x9bdc_06a7, 0xc19b_f174, 0xe49b_69c1, 0xefbe_4786, 0x0fc1_9dc6, 0x240c_a1cc, 0x2de9_2c6f,
    0x4a74_84aa, 0x5cb0_a9dc, 0x76f9_88da, 0x983e_5152, 0xa831_c66d, 0xb003_27c8, 0xbf59_7fc7,
    0xc6e0_0bf3, 0xd5a7_9147, 0x06ca_6351, 0x1429_2967, 0x27b7_0a85, 0x2e1b_2138, 0x4d2c_6dfc,
    0x5338_0d13, 0x650a_7354, 0x766a_0abb, 0x81c2_c92e, 0x9272_2c85, 0xa2bf_e8a1, 0xa81a_664b,
    0xc24b_8b70, 0xc76c_51a3, 0xd192_e819, 0xd699_0624, 0xf40e_3585, 0x106a_a070, 0x19a4_c116,
    0x1e37_6c08, 0x2748_774c, 0x34b0_bcb5, 0x391c_0cb3, 0x4ed8_aa4a, 0x5b9c_ca4f, 0x682e_6ff3,
    0x748f_82ee, 0x78a5_636f, 0x84c8_7814, 0x8cc7_0208, 0x90be_fffa, 0xa450_6ceb, 0xbef9_a3f7,
    0xc671_78f2,
];

/// An incremental SHA-256 hasher (FIPS 180-4). Feed bytes with
/// [`Sha256::update`], finish with [`Sha256::finish_hex`].
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher at the standard initial state.
    #[must_use]
    pub fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09_e667,
                0xbb67_ae85,
                0x3c6e_f372,
                0xa54f_f53a,
                0x510e_527f,
                0x9b05_688c,
                0x1f83_d9ab,
                0x5be0_cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Pads, finalises, and renders the digest as 64 lowercase hex
    /// characters.
    #[must_use]
    pub fn finish_hex(mut self) -> String {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length goes straight into the buffer: `update` would count it.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = String::with_capacity(64);
        for word in self.state {
            let _ = write!(out, "{word:08x}");
        }
        out
    }
}

/// SHA-256 of `data`, as lowercase hex.
#[must_use]
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finish_hex()
}

/// A convenience builder hashing a sequence of labelled components into
/// one digest. Each component is fed as `key=value\n` with the lengths
/// mixed in, so component boundaries cannot be confused (no
/// concatenation ambiguity between `("ab","c")` and `("a","bc")`).
#[derive(Default)]
pub struct Fingerprinter {
    hasher: Sha256,
}

impl Fingerprinter {
    /// A fresh fingerprint builder.
    #[must_use]
    pub fn new() -> Fingerprinter {
        Fingerprinter::default()
    }

    /// Mixes one labelled component into the digest.
    pub fn field(&mut self, key: &str, value: &str) -> &mut Fingerprinter {
        self.hasher
            .update(format!("{}:{}={}\n", key.len(), key, value).as_bytes());
        self.hasher
            .update(format!("#{}\n", value.len()).as_bytes());
        self.hasher.update(value.as_bytes());
        self.hasher.update(b"\n");
        self
    }

    /// The final digest as 64 hex characters.
    #[must_use]
    pub fn finish(self) -> String {
        self.hasher.finish_hex()
    }
}

/// The semantics-relevant identity of this engine build and process
/// configuration, as a stable hex digest.
///
/// Components:
///
/// * the workspace crate version (all `diaframe-*` crates share it);
/// * the trace-format revision ([`crate::trace_json::FORMAT_REV`]) —
///   bumped whenever the serialized trace shape or the checker contract
///   changes, which is exactly when old stored traces must stop
///   replaying;
/// * the state of the one remaining engine switch, the hint index. It
///   is trace-identical by construction (the fuzz driver uses it as its
///   indexed-vs-linear oracle), but the store treats "identical" as a
///   claim to be immune to, not to rely on: flipping it changes the
///   fingerprint and cold-misses the cache rather than replaying traces
///   recorded under a different configuration.
///
/// Deliberately **not** included: the per-thread [`crate::Ablation`]
/// override (it varies per request, so the store keys it separately)
/// and observability state (telemetry/profiling are identity-preserving
/// side channels; their identity tests gate that in CI).
///
/// The digest is stable across processes of the same build — asserted
/// by `crates/core/tests/fingerprint_restart.rs` via a subprocess — and
/// is cheap enough to recompute per call (the store caches it once per
/// open).
#[must_use]
pub fn engine_fingerprint() -> String {
    let mut fp = Fingerprinter::new();
    fp.field("crate_version", env!("CARGO_PKG_VERSION"));
    fp.field(
        "trace_format_rev",
        &crate::trace_json::FORMAT_REV.to_string(),
    );
    fp.field(
        "hint_index",
        if crate::index::hint_index_enabled() { "on" } else { "off" },
    );
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FIPS 180-4 test vectors (empty string, "abc", two-block
    /// message) plus a chunking-independence check.
    #[test]
    fn sha256_standard_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_is_chunking_independent() {
        let data = vec![0xa5u8; 300];
        let whole = sha256_hex(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish_hex(), whole);
        // And across the exact block boundary.
        let mut h = Sha256::new();
        h.update(&data[..64]);
        h.update(&data[64..]);
        assert_eq!(h.finish_hex(), whole);
    }

    #[test]
    fn fingerprinter_separates_component_boundaries() {
        let mut a = Fingerprinter::new();
        a.field("x", "ab").field("y", "c");
        let mut b = Fingerprinter::new();
        b.field("x", "a").field("y", "bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn engine_fingerprint_is_deterministic_and_hex() {
        let a = engine_fingerprint();
        let b = engine_fingerprint();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
