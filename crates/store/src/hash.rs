//! Content addressing for experiment cells.
//!
//! A cell's address is the SHA-256 digest of its *canonical cell spec*:
//! the spec's pretty JSON text without the members that cannot change the
//! result. Each workload kind names those members in its
//! `StoreCell::cell_spec_text`, and the spec layer's text sink writes the
//! text straight from the spec, leaving them out as it goes
//! ([`eacp_spec::json::pretty_omitting`]); no document tree is built and
//! stripped first.
//!
//! The text inherits the spec layer's canonical formatting:
//! shortest-round-trip floats, lossless integers, fixed key order from the
//! `ToJson` impls — the bytes `Json::pretty` prints for the same document
//! with those members removed. Two specs that parse to the same document —
//! whatever the key order, whitespace or float spelling of the *input*
//! text — therefore share an address, and any semantic change produces a
//! new one.
//!
//! The build environment is offline, so the crate carries its own SHA-256
//! (FIPS 180-4) rather than depending on a hashing crate.

use crate::cell::StoreCell;
use eacp_spec::{ExperimentSpec, SpecError};
use std::cell::RefCell;

thread_local! {
    /// The last canonical text this thread hashed, with its digest.
    static LAST_DIGEST: RefCell<Option<(String, [u8; 32])>> = const { RefCell::new(None) };
}

/// The 32-byte content address of a canonical cell spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpecHash(pub [u8; 32]);

impl SpecHash {
    /// The address of a canonical cell-spec text.
    ///
    /// Each thread remembers the last canonical text it hashed and its
    /// digest. A call whose text is byte-for-byte equal to that text
    /// returns the remembered digest; any other text is hashed in full and
    /// becomes the new memo. A memo hit therefore never stands in for a
    /// different text. On a store hit this turns the read-side integrity
    /// check ([`crate::CellEntry::validate`] re-hashing the embedded spec
    /// right after the lookup hashed the requested one) into a string
    /// compare, while an embedded spec that differs in any byte still
    /// re-hashes to a different address.
    pub fn of(text: &str) -> Self {
        LAST_DIGEST.with(|memo| {
            let mut memo = memo.borrow_mut();
            if let Some((last, digest)) = memo.as_ref() {
                if last == text {
                    return Self(*digest);
                }
            }
            let digest = sha256(text.as_bytes());
            *memo = Some((text.to_owned(), digest));
            Self(digest)
        })
    }

    /// Parses the 64-character lowercase-hex form produced by `Display`.
    pub fn from_hex(text: &str) -> Result<Self, SpecError> {
        let bytes = text.as_bytes();
        if bytes.len() != 64 {
            return Err(SpecError::invalid(format!(
                "spec hash must be 64 hex characters (got {})",
                bytes.len()
            )));
        }
        let mut out = [0u8; 32];
        for (i, slot) in out.iter_mut().enumerate() {
            let hi = hex_digit(bytes[2 * i])?;
            let lo = hex_digit(bytes[2 * i + 1])?;
            *slot = hi << 4 | lo;
        }
        Ok(Self(out))
    }
}

/// Calls `f` with the canonical text this thread last hashed (empty before
/// the first): what a store hit compares its entry's embedded spec with.
pub(crate) fn with_last_text<T>(f: impl FnOnce(&str) -> T) -> T {
    LAST_DIGEST.with(|memo| f(memo.borrow().as_ref().map_or("", |(text, _)| text)))
}

fn hex_digit(b: u8) -> Result<u8, SpecError> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        _ => Err(SpecError::invalid(format!(
            "invalid hex digit {:?} in spec hash",
            b as char
        ))),
    }
}

impl std::fmt::Display for SpecHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = [0u8; 64];
        for (pair, b) in text.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        // Every byte is an ASCII hex digit.
        f.write_str(std::str::from_utf8(&text).map_err(|_| std::fmt::Error)?)
    }
}

/// The content address of an experiment's canonical cell spec.
pub fn spec_hash(spec: &ExperimentSpec) -> SpecHash {
    SpecHash::of(&spec.cell_spec_text())
}

/// SHA-256 (FIPS 180-4) of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data ‖ 0x80 ‖ zeros ‖ 64-bit big-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = Vec::with_capacity(data.len() + 72);
    msg.extend_from_slice(data);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }

    let mut out = [0u8; 32];
    for (chunk, v) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&v.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::QueueSpec;

    fn hex(digest: [u8; 32]) -> String {
        SpecHash(digest).to_string()
    }

    #[test]
    fn sha256_matches_fips_test_vectors() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Exercise multi-block padding (len 55/56/64 straddle the boundary).
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let data = vec![0x61u8; len];
            assert_eq!(sha256(&data).len(), 32, "len {len}");
        }
    }

    #[test]
    fn hash_ignores_name_mc_and_queue_scheduling() {
        let base = ExperimentSpec::paper_nominal();
        let mut renamed = base.clone();
        renamed.name = "something-else".into();
        let mut reseeded = base.clone();
        reseeded.mc.seed = 77;
        reseeded.mc.replications = 12;
        reseeded.mc.threads = 3;
        let mut queued = base.clone();
        queued.executor = queued.executor.with_queue(QueueSpec::default());
        for variant in [&renamed, &reseeded, &queued] {
            assert_eq!(spec_hash(&base), spec_hash(variant));
        }
    }

    #[test]
    fn hash_distinguishes_result_bearing_fields() {
        let base = ExperimentSpec::paper_nominal();
        let mut faults = base.clone();
        faults.faults = eacp_spec::FaultSpec::Poisson { lambda: 1.5e-3 };
        let mut policy = base.clone();
        policy.policy = eacp_spec::PolicySpec::from_tag("cscp", 1.4e-3, 5, 0).unwrap();
        let mut executor = base.clone();
        executor.executor.stop_at_deadline = !executor.executor.stop_at_deadline;
        for variant in [&faults, &policy, &executor] {
            assert_ne!(spec_hash(&base), spec_hash(variant));
        }
    }

    #[test]
    fn hex_round_trips() {
        let h = spec_hash(&ExperimentSpec::paper_nominal());
        let text = h.to_string();
        assert_eq!(text.len(), 64);
        assert_eq!(SpecHash::from_hex(&text).unwrap(), h);
        assert!(SpecHash::from_hex("zz").is_err());
        assert!(SpecHash::from_hex(&text[..63]).is_err());
        assert!(SpecHash::from_hex(&text.to_uppercase()).is_err());
    }

    #[test]
    fn canonical_cell_spec_re_hashes_to_its_own_address() {
        let spec = ExperimentSpec::paper_nominal();
        let text = spec.cell_spec_text();
        let doc = eacp_spec::Json::parse(&text).unwrap();
        assert!(doc.get("name").is_none());
        assert!(doc.get("mc").is_none());
        assert_eq!(doc.pretty(), text);
        assert_eq!(SpecHash::of(&text), spec_hash(&spec));
    }
}
