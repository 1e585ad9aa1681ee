//! Property tests for the container format: arbitrary mutations of a
//! valid container must never panic the verifier and must always be
//! rejected with a typed [`SnapError`].
//!
//! The crate takes no dev-dependencies, so the generator is a small
//! seeded splitmix64 — fixed seeds make every run (and every failure)
//! reproducible by construction.

use snapshot::frame::{crc64, Container, ContainerWriter};
use snapshot::{decode, Snapshot};

/// splitmix64: tiny, seedable, full-period. Good enough to fuzz byte
/// mutations deterministically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A representative container: several frames of varied sizes,
/// including an empty payload, committed as a delta.
fn sample(rng: &mut Rng) -> Vec<u8> {
    let mut cw = ContainerWriter::new();
    let frames = 2 + rng.below(5);
    for kind in 0..frames {
        let len = rng.below(200);
        let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        cw.frame(kind as u32, &payload);
    }
    cw.commit(9, Some(4))
}

#[test]
fn every_truncation_is_rejected() {
    let mut rng = Rng(0x5EED_0001);
    let bytes = sample(&mut rng);
    for cut in 0..bytes.len() {
        let err = Container::open(&bytes[..cut]);
        assert!(err.is_err(), "truncation at {cut} accepted");
    }
}

#[test]
fn random_bit_flips_are_rejected() {
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..64 {
        let clean = sample(&mut rng);
        let mut bytes = clean.clone();
        let flips = 1 + rng.below(4);
        for _ in 0..flips {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
        // Two flips can land on the same bit and cancel; only a
        // net-changed container must be rejected.
        if bytes != clean {
            assert!(
                Container::open(&bytes).is_err(),
                "flipped container accepted"
            );
        }
    }
}

#[test]
fn duplicated_and_deleted_frames_are_rejected() {
    let mut rng = Rng(0x5EED_0003);
    for _ in 0..64 {
        let bytes = sample(&mut rng);
        let c = Container::open(&bytes).expect("pristine container opens");
        assert!(!c.frames.is_empty());

        // Duplicate: splice a copy of the first frame's extent right
        // after itself. The frame CRC still matches, but the commit's
        // frame count and body CRC no longer do.
        let header = 8;
        let first_end = frame_end(&bytes, header);
        let mut dup = bytes.clone();
        let copy: Vec<u8> = bytes[header..first_end].to_vec();
        dup.splice(first_end..first_end, copy);
        assert!(Container::open(&dup).is_err(), "duplicated frame accepted");

        // Delete: drop the first frame entirely.
        let mut del = bytes.clone();
        del.drain(header..first_end);
        assert!(Container::open(&del).is_err(), "deleted frame accepted");
    }
}

#[test]
fn garbage_splices_are_rejected() {
    let mut rng = Rng(0x5EED_0004);
    for _ in 0..128 {
        let bytes = sample(&mut rng);
        let at = rng.below(bytes.len() + 1);
        let n = 1 + rng.below(64);
        let garbage: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
        let mut spliced = bytes.clone();
        spliced.splice(at..at, garbage);
        assert!(
            Container::open(&spliced).is_err(),
            "garbage splice of {n} bytes at {at} accepted"
        );
    }
}

#[test]
fn pure_noise_never_panics_and_never_verifies() {
    let mut rng = Rng(0x5EED_0005);
    for _ in 0..256 {
        let len = rng.below(512);
        let noise: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert!(Container::open(&noise).is_err(), "noise accepted");
    }
}

#[test]
fn flat_codec_never_panics_on_mutated_input() {
    // The flat Reader paths (length prefixes, UTF-8 strings, nested
    // containers) must stay panic-free under mutation. A mutation can
    // legitimately decode Ok (e.g. a flipped payload byte inside a
    // string), so the property here is only "no panic, typed result".
    let mut rng = Rng(0x5EED_0006);
    let value: Vec<(u64, String, Vec<u8>)> = vec![
        (1, "alpha".into(), vec![1, 2, 3]),
        (u64::MAX, "β-mixed utf8 ✓".into(), vec![]),
        (42, String::new(), vec![0xFF; 64]),
    ];
    let clean = snapshot::encode(&value);
    for _ in 0..512 {
        let mut bytes = clean.clone();
        match rng.below(3) {
            0 => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => {
                bytes.truncate(rng.below(bytes.len() + 1));
            }
            _ => {
                let at = rng.below(bytes.len() + 1);
                let n = 1 + rng.below(16);
                let garbage: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                bytes.splice(at..at, garbage);
            }
        }
        let _ = decode::<Vec<(u64, String, Vec<u8>)>>(&bytes);
    }
}

#[test]
fn oversized_length_prefix_is_an_error_not_an_allocation() {
    // A corrupt length prefix far past the buffer must fail fast with
    // a typed error, not attempt the allocation.
    let mut w = snapshot::Writer::new();
    w.usize(usize::MAX / 2);
    let bytes = w.into_bytes();
    let mut r = snapshot::Reader::new(&bytes);
    let n = r.seq_len();
    assert!(n.is_err(), "absurd length prefix accepted: {n:?}");
    let err = decode::<Vec<u64>>(&bytes);
    assert!(err.is_err(), "absurd vec length accepted");
}

/// Byte offset one past the end of the frame starting at `start`
/// (kind u32 + usize length prefix + payload + u64 crc), computed with
/// the crate's own Reader so the layout never drifts.
fn frame_end(bytes: &[u8], start: usize) -> usize {
    let mut r = snapshot::Reader::new(&bytes[start..]);
    r.u32().expect("frame kind");
    let n = r.seq_len().expect("frame length");
    r.take(n).expect("frame payload");
    r.u64().expect("frame crc");
    bytes.len() - r.remaining()
}

/// Smoke check that the helper trait is actually in scope (the tests
/// above exercise `decode` via the blanket impls).
#[test]
fn round_trip_sanity() {
    let v: Vec<u64> = (0..16).collect();
    let bytes = snapshot::encode(&v);
    let mut r = snapshot::Reader::new(&bytes);
    let back = Vec::<u64>::restore(&mut r).expect("restore");
    assert_eq!(back, v);
}

/// The bytewise table-driven CRC-64/XZ: one table step per byte. The
/// oracle for the slicing-by-8 [`crc64`].
fn crc64_bytewise(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let table: Vec<u64> = (0..256u64)
        .map(|i| (0..8).fold(i, |c, _| if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 }))
        .collect();
    !bytes.iter().fold(!0u64, |crc, &b| {
        table[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

#[test]
fn bytewise_oracle_matches_the_check_value() {
    assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
}

#[test]
fn sliced_crc_matches_bytewise_at_every_short_length_and_offset() {
    // Every length 0..=64 from every start offset 0..8: covers each
    // split between the eight-byte steps and the bytewise remainder,
    // and every alignment of the input.
    let mut rng = Rng(0x5EED_0007);
    let buf: Vec<u8> = (0..72).map(|_| rng.next() as u8).collect();
    for start in 0..8 {
        for len in 0..=64 {
            let bytes = &buf[start..start + len];
            assert_eq!(crc64(bytes), crc64_bytewise(bytes), "start {start} len {len}");
        }
    }
}

#[test]
fn sliced_crc_matches_bytewise_on_random_buffers() {
    let mut rng = Rng(0x5EED_0008);
    for _ in 0..64 {
        let len = rng.below(64 * 1024 + 1);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert_eq!(crc64(&bytes), crc64_bytewise(&bytes), "len {len}");
    }
}
