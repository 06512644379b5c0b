//! The journal's on-disk format, pinned by bytes an older build wrote.
//!
//! `golden/journal-format.xgj` is one segment holding a frame for every
//! record of [`fixture_records`], appended by `Journal::append` of the last
//! build that checksummed with the bytewise table loop (commit `d0d08e5`).
//! It covers every record kind the encoder writes, and its large
//! `Checkpoint` (70,001 bytes of state) runs both the 16-byte loop and the
//! byte tail of the slice-by-16 CRC-32. The file is never regenerated: a
//! change that makes it stop replaying, or makes today's writer produce
//! other bytes, changed the format.
//!
//! `golden/journal-format-checkpoint-ref.xgj` pins the `CheckpointRef`
//! record the same way: written once by the build that introduced it, and
//! never regenerated.
//!
//! Beside them, the CRC-32 is checked against the bytewise loop it
//! replaced, kept here as the oracle.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use xg_serve::journal::{crc32, fnv1a, Journal, JournalConfig};
use xg_serve::{BatchId, JobId, JournalRecord};

const FIXTURE: &str = "journal-format.xgj";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn fixture_path() -> PathBuf {
    fixture_dir().join(FIXTURE)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xg-journal-format-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `n` deterministic bytes (a 64-bit LCG's high byte per step).
fn filler(n: usize, mut s: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (s >> 56) as u8
        })
        .collect()
}

/// The records the fixture holds, in append order: every kind, empty and
/// non-ASCII strings, one small and one large checkpoint.
fn fixture_records() -> Vec<JournalRecord> {
    let deck = "N_RADIAL=4\nN_XI=8\nNU_EE=0.1\n";
    vec![
        JournalRecord::Submitted {
            job: JobId(0),
            token: "tok-0".into(),
            deck_hash: fnv1a(deck.as_bytes()),
            deck: deck.into(),
            steps: 40,
            tag: "sweep-α".into(),
            submitted_unix_us: 1_760_000_000_000_000,
            tenant: "alice".into(),
        },
        JournalRecord::Submitted {
            job: JobId(1),
            token: String::new(),
            deck_hash: fnv1a(b""),
            deck: String::new(),
            steps: 0,
            tag: String::new(),
            submitted_unix_us: 0,
            tenant: "default".into(),
        },
        JournalRecord::Batched { job: JobId(0), batch: BatchId(0) },
        JournalRecord::Batched { job: JobId(1), batch: BatchId(0) },
        JournalRecord::Running { batch: BatchId(0), jobs: vec![JobId(0), JobId(1)] },
        JournalRecord::Checkpoint {
            batch: BatchId(0),
            jobs: vec![JobId(0), JobId(1)],
            seq: 0,
            done_steps: 10,
            state: filler(37, 1),
        },
        JournalRecord::Checkpoint {
            batch: BatchId(0),
            jobs: vec![JobId(0)],
            seq: 1,
            done_steps: 20,
            state: filler(70_001, 2),
        },
        JournalRecord::Done {
            job: JobId(0),
            steps: 40,
            h_hash: 0x0123_4567_89ab_cdef,
            diag_bits: [0.5f64.to_bits(), (-0.0f64).to_bits(), 1e-300f64.to_bits(), u64::MAX],
        },
        JournalRecord::Failed { job: JobId(1), detail: "member 1 evicted: rank 2 crashed".into() },
        JournalRecord::Running { batch: BatchId(1), jobs: vec![] },
        JournalRecord::Cancelled { job: JobId(2), detail: String::new() },
        JournalRecord::CacheHit {
            job: JobId(3),
            token: "tok-hit".into(),
            deck_hash: fnv1a(deck.as_bytes()),
            deck: deck.into(),
            steps: 40,
            tag: "repeat".into(),
            submitted_unix_us: 1_760_000_000_500_000,
            steps_done: 40,
            h_hash: 0x0123_4567_89ab_cdef,
            diag_bits: [1, 2, 3, 4],
            tenant: "bob".into(),
        },
    ]
}

#[test]
fn a_segment_an_older_build_wrote_replays_record_for_record() {
    let golden = std::fs::read(fixture_path()).expect("fixture present");
    assert!(golden.len() > 70_001, "the large checkpoint is in the fixture");
    let dir = tmpdir("replay");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-000000.xgj"), &golden).unwrap();
    let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
    let want = fixture_records();
    assert_eq!(replay.records.len(), want.len());
    for (i, (got, want)) in replay.records.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "record {i}");
    }
    assert_eq!(replay.torn_bytes, 0);
    assert!(replay.warnings.is_empty(), "{:?}", replay.warnings);
    assert_eq!(replay.bytes, golden.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn todays_writer_produces_the_fixture_bytes() {
    let dir = tmpdir("write");
    {
        let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        for r in &fixture_records() {
            j.append(r).unwrap();
        }
    }
    let written = std::fs::read(dir.join("seg-000000.xgj")).unwrap();
    assert!(written == std::fs::read(fixture_path()).unwrap(), "the frame bytes changed");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `golden/journal-format-checkpoint-ref.xgj`: one segment holding a frame
/// for every record of [`checkpoint_ref_records`], appended by
/// `Journal::append` of the first build that wrote `CheckpointRef`
/// (tag 11). Never regenerated, like the fixture above.
const CHECKPOINT_REF_FIXTURE: &str = "journal-format-checkpoint-ref.xgj";

/// A batch's life as the live path journals it since checkpoint state
/// moved to files: dispatch, two `CheckpointRef`s (the second after a
/// member left), the end; plus one at every field's extreme.
fn checkpoint_ref_records() -> Vec<JournalRecord> {
    let image = filler(147_456, 4);
    vec![
        JournalRecord::Running { batch: BatchId(7), jobs: vec![JobId(4), JobId(5), JobId(6)] },
        JournalRecord::CheckpointRef {
            batch: BatchId(7),
            jobs: vec![JobId(4), JobId(5), JobId(6)],
            seq: 0,
            done_steps: 10,
            state_len: image.len() as u64,
            state_crc: crc32(&image),
        },
        JournalRecord::Cancelled { job: JobId(5), detail: "preempted at checkpoint".into() },
        JournalRecord::CheckpointRef {
            batch: BatchId(7),
            jobs: vec![JobId(4), JobId(6)],
            seq: 1,
            done_steps: 20,
            state_len: 0,
            state_crc: crc32(b""),
        },
        JournalRecord::CheckpointRef {
            batch: BatchId(u64::MAX),
            jobs: vec![],
            seq: u64::MAX,
            done_steps: u64::MAX,
            state_len: u64::MAX,
            state_crc: u32::MAX,
        },
        JournalRecord::Done {
            job: JobId(4),
            steps: 40,
            h_hash: 0x0123_4567_89ab_cdef,
            diag_bits: [1, 2, 3, 4],
        },
    ]
}

#[test]
fn a_checkpoint_ref_segment_replays_record_for_record() {
    let golden = std::fs::read(fixture_dir().join(CHECKPOINT_REF_FIXTURE)).expect("fixture present");
    let dir = tmpdir("replay-ref");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-000000.xgj"), &golden).unwrap();
    let (_, replay) = Journal::open(JournalConfig::durable(&dir)).unwrap();
    let want = checkpoint_ref_records();
    assert_eq!(replay.records.len(), want.len());
    for (i, (got, want)) in replay.records.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "record {i}");
    }
    assert_eq!(replay.torn_bytes, 0);
    assert!(replay.warnings.is_empty(), "{:?}", replay.warnings);
    assert_eq!(replay.bytes, golden.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn todays_writer_produces_the_checkpoint_ref_fixture_bytes() {
    let dir = tmpdir("write-ref");
    {
        let (mut j, _) = Journal::open(JournalConfig::durable(&dir)).unwrap();
        for r in &checkpoint_ref_records() {
            j.append(r).unwrap();
        }
    }
    let written = std::fs::read(dir.join("seg-000000.xgj")).unwrap();
    let golden = std::fs::read(fixture_dir().join(CHECKPOINT_REF_FIXTURE)).unwrap();
    assert!(written == golden, "the frame bytes changed");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The bytewise table loop the journal checksummed with before the
/// slice-by-16 version.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, e) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        *e = c;
    }
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[test]
fn crc32_equals_the_bytewise_loop_at_every_short_length_and_offset() {
    let buf = filler(64 + 16, 3);
    for start in 0..16 {
        for len in 0..=64 {
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
        }
    }
}

proptest! {
    #[test]
    fn crc32_equals_the_bytewise_loop_on_random_buffers(
        len in 0usize..256 * 1024 + 1,
        seed in 0u64..,
    ) {
        let bytes = filler(len, seed);
        prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }
}
