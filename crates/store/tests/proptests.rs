//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use sp_store::{sha256, Archive, ArchiveEntry, ContentStore, ObjectId};

/// Strategy for legal archive paths: 1-3 components of [a-z0-9_]{1,8}.
fn path_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-z0-9_]{1,8}", 1..=3).prop_map(|parts| parts.join("/"))
}

fn entry_strategy() -> impl Strategy<Value = ArchiveEntry> {
    (
        path_strategy(),
        prop::collection::vec(any::<u8>(), 0..256),
        prop::bool::ANY,
    )
        .prop_map(|(path, data, exec)| {
            if exec {
                ArchiveEntry::executable(path, data)
            } else {
                ArchiveEntry::file(path, data)
            }
        })
}

proptest! {
    /// Incremental hashing over any random chunking equals the one-shot
    /// fast path (`Sha256::digest_of`).
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        split_fracs in prop::collection::vec(0.0f64..1.0, 0..4),
    ) {
        let mut splits: Vec<usize> = split_fracs
            .iter()
            .map(|f| (f * data.len() as f64) as usize)
            .collect();
        splits.sort_unstable();
        splits.dedup();
        splits.push(data.len());

        let oneshot = sha256::Sha256::digest_of(&data);
        prop_assert_eq!(oneshot, sha256::digest(&data));

        let mut hasher = sha256::Sha256::new();
        let mut prev = 0usize;
        for &s in &splits {
            hasher.update(&data[prev..s]);
            prev = s;
        }
        prop_assert_eq!(hasher.finalize(), oneshot);
    }

    /// `put_prehashed` with an id computed by streaming the bytes through
    /// `Sha256::update` behaves exactly like `put`: same address,
    /// deduplicated storage.
    #[test]
    fn prehashed_put_equals_hashed_put(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let store = ContentStore::new();
        let plain = store.put(data.clone());
        let mut hasher = sha256::Sha256::new();
        for piece in data.chunks(13) {
            hasher.update(piece);
        }
        let id = ObjectId(hasher.finalize());
        let prehashed = store.put_prehashed(id, data.clone());
        prop_assert_eq!(plain, prehashed);
        prop_assert_eq!(store.len(), 1);
        prop_assert_eq!(store.get(prehashed).unwrap().as_ref(), &data[..]);
    }

    /// Content addresses are stable and injective in practice.
    #[test]
    fn object_id_round_trips_hex(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let id = ObjectId::for_bytes(&data);
        prop_assert_eq!(ObjectId::from_hex(&id.to_hex()), Some(id));
    }

    /// The table-driven hex encoder writes exactly what per-byte
    /// `{:02x}` formatting writes, and its output decodes back to the
    /// digest; the uppercase form of the same digest never decodes.
    #[test]
    fn to_hex_equals_formatted_hex(bytes in prop::collection::vec(any::<u8>(), 32..33)) {
        let digest: [u8; 32] = bytes.try_into().unwrap();
        let formatted: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        let hex = sha256::to_hex(&digest);
        prop_assert_eq!(&hex, &formatted);
        let id = ObjectId(digest);
        prop_assert_eq!(ObjectId::from_hex(&hex), Some(id));
        prop_assert_eq!(&sha256::hex(&digest)[..], hex.as_bytes());
        let upper = hex.to_ascii_uppercase();
        if upper != hex {
            prop_assert_eq!(ObjectId::from_hex(&upper), None);
        }
    }

    /// Every string that decodes re-encodes to itself.
    #[test]
    fn from_hex_accepts_only_canonical_text(text in "[0-9a-fA-Fg]{64}") {
        if let Some(id) = ObjectId::from_hex(&text) {
            prop_assert_eq!(id.to_hex(), text);
        }
    }

    /// put/get round-trips arbitrary payloads bit-for-bit.
    #[test]
    fn store_round_trip(data in prop::collection::vec(any::<u8>(), 0..1024)) {
        let store = ContentStore::new();
        let id = store.put(data.clone());
        let fetched = store.get(id).unwrap();
        prop_assert_eq!(fetched.as_ref(), &data[..]);
    }

    /// Archives survive pack/unpack with entries preserved (modulo the
    /// deterministic path ordering applied at pack time).
    #[test]
    fn archive_round_trip(entries in prop::collection::vec(entry_strategy(), 0..12)) {
        // Deduplicate paths: duplicate paths are legal but make entry lookup
        // ambiguous for the comparison below.
        let mut seen = std::collections::HashSet::new();
        let mut archive = Archive::new();
        let mut expected = Vec::new();
        for e in entries {
            if seen.insert(e.path.clone()) {
                archive.add(e.clone()).unwrap();
                expected.push(e);
            }
        }
        let unpacked = Archive::unpack(&archive.pack()).unwrap();
        prop_assert_eq!(unpacked.len(), expected.len());
        for e in &expected {
            let got = unpacked.entry(&e.path).expect("entry preserved");
            prop_assert_eq!(&got.data, &e.data);
            prop_assert_eq!(got.mode, e.mode);
        }
    }

    /// Packing is a pure function of contents, not insertion order.
    #[test]
    fn archive_pack_order_independent(entries in prop::collection::vec(entry_strategy(), 0..8)) {
        let mut seen = std::collections::HashSet::new();
        let mut unique = Vec::new();
        for e in entries {
            if seen.insert(e.path.clone()) {
                unique.push(e);
            }
        }
        let mut forward = Archive::new();
        for e in &unique {
            forward.add(e.clone()).unwrap();
        }
        let mut reversed = Archive::new();
        for e in unique.iter().rev() {
            reversed.add(e.clone()).unwrap();
        }
        prop_assert_eq!(forward.pack(), reversed.pack());
    }

    /// Any single-bit corruption of a packed archive is detected.
    #[test]
    fn archive_bit_flip_detected(
        entries in prop::collection::vec(entry_strategy(), 1..6),
        flip_frac in 0.0f64..1.0,
    ) {
        let mut archive = Archive::new();
        let mut seen = std::collections::HashSet::new();
        for e in entries {
            if seen.insert(e.path.clone()) {
                archive.add(e).unwrap();
            }
        }
        let packed = archive.pack().to_vec();
        let idx = ((flip_frac * packed.len() as f64) as usize).min(packed.len() - 1);
        let mut corrupted = packed.clone();
        corrupted[idx] ^= 0x40;
        prop_assert!(Archive::unpack(&corrupted).is_err());
    }
}

/// Strategy for warm-state snapshots: 1–3 named sections of random
/// byte-string entries.
fn snapshot_strategy() -> impl Strategy<Value = sp_store::Snapshot> {
    prop::collection::vec(
        (
            "[a-z-]{1,12}",
            prop::collection::vec(
                (
                    prop::collection::vec(any::<u8>(), 0..24),
                    prop::collection::vec(any::<u8>(), 0..48),
                ),
                0..4,
            ),
        ),
        1..=3,
    )
    .prop_map(|sections| sp_store::Snapshot {
        sections: sections
            .into_iter()
            .map(|(name, entries)| sp_store::SnapshotSection { name, entries })
            .collect(),
    })
}

/// Byte offset of entry `(section, index)`'s value region inside the
/// encoded snapshot (mirrors the documented `SPWS` layout), together with
/// the value length.
fn entry_value_offset(
    snapshot: &sp_store::Snapshot,
    section: usize,
    index: usize,
) -> (usize, usize) {
    let mut offset = 4 + 4 + 4; // magic, version, section count
    for (s, sec) in snapshot.sections.iter().enumerate() {
        offset += 2 + sec.name.len() + 4; // name, entry count
        for (e, (key, value)) in sec.entries.iter().enumerate() {
            if s == section && e == index {
                return (offset + 4 + key.len() + 4, value.len());
            }
            offset += 4 + key.len() + 4 + value.len() + 32;
        }
    }
    unreachable!("entry exists");
}

proptest! {
    /// The warm-state snapshot round trip: encode → decode is the
    /// identity, and corrupting exactly one entry's payload (a value
    /// byte, or a digest byte for empty values) drops **only that
    /// entry** — every other entry loads bit-exact, nothing is fabricated.
    #[test]
    fn snapshot_corrupt_one_entry_drops_only_that_entry(
        snapshot in snapshot_strategy(),
        pick in 0usize..1024,
        flip_bit in 0u8..8,
    ) {
        let encoded = snapshot.encode();

        // Clean round trip first.
        let (decoded, report) = sp_store::Snapshot::decode(&encoded).expect("clean decode");
        prop_assert_eq!(&decoded, &snapshot);
        prop_assert_eq!(report.entries_loaded, snapshot.entry_count());
        prop_assert_eq!(report.entries_dropped, 0);

        // Pick one entry and corrupt its payload.
        let positions: Vec<(usize, usize)> = snapshot
            .sections
            .iter()
            .enumerate()
            .flat_map(|(s, sec)| (0..sec.entries.len()).map(move |e| (s, e)))
            .collect();
        prop_assume!(!positions.is_empty());
        let (section, index) = positions[pick % positions.len()];
        let (value_offset, value_len) = entry_value_offset(&snapshot, section, index);
        // An empty value leaves only the digest to corrupt — same trust
        // property, detected by the same check.
        let target = if value_len > 0 { value_offset } else { value_offset + 1 };
        let mut corrupted = encoded.clone();
        corrupted[target] ^= 1 << flip_bit;

        let (decoded, report) = sp_store::Snapshot::decode(&corrupted).expect("payload corruption never aborts the load");
        prop_assert_eq!(report.entries_dropped, 1, "exactly the corrupted entry");
        prop_assert_eq!(report.entries_loaded, snapshot.entry_count() - 1);
        for (s, (got, want)) in decoded.sections.iter().zip(&snapshot.sections).enumerate() {
            prop_assert_eq!(&got.name, &want.name);
            let mut expected = want.entries.clone();
            if s == section {
                expected.remove(index);
            }
            prop_assert_eq!(&got.entries, &expected, "survivors are bit-exact originals");
        }
    }
}
