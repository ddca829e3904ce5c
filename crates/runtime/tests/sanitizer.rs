//! Seeded-violation tests: prove the determinism sanitizer actually
//! fires through the real runtime entry points, not just in unit tests of
//! the checker. Compiled only with `--features sanitizer`.
#![cfg(feature = "sanitizer")]

use harp_runtime::sanitizer::{self, Seed, ViolationKind};
use harp_runtime::Runtime;

#[test]
fn clean_sections_raise_no_violations() {
    let rt = Runtime::new(4);
    let items: Vec<u64> = (0..37).collect();
    let (sum, violations) = sanitizer::capture(|| {
        let doubled = rt.par_map(&items, |_, &x| 2 * x);
        let partials = rt
            .try_par_chunks(&doubled, |_, _, chunk| chunk.iter().sum::<u64>())
            .expect("no panics");
        partials.iter().sum::<u64>()
    });
    assert_eq!(sum, 2 * items.iter().sum::<u64>());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn seeded_partition_overlap_is_a_structured_violation() {
    let rt = Runtime::new(4);
    let items: Vec<u64> = (0..32).collect();
    sanitizer::seed(Seed::OverlapPartitions);
    let (doubled, violations) = sanitizer::capture(|| rt.par_map(&items, |_, &x| 2 * x));
    // The corruption is shadow-only: real work is untouched.
    assert_eq!(doubled, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.section, "par_map");
    match &v.kind {
        ViolationKind::PartitionOverlap { a, b, overlap } => {
            assert_eq!((*a, *b), (0, 1), "blocks 0 and 1 overlap");
            assert_eq!(*overlap, 8..9, "32 items over 4 workers: block 0 ends at 8");
        }
        other => panic!("expected PartitionOverlap, got {other:?}"),
    }
    // The rendered report names the offending workers.
    let rendered = v.to_string();
    assert!(rendered.contains("par_map"), "{rendered}");
    assert!(rendered.contains("blocks 0 and 1"), "{rendered}");
}

#[test]
fn uncaptured_violation_panics_loudly() {
    let caught = std::panic::catch_unwind(|| {
        sanitizer::seed(Seed::OverlapPartitions);
        Runtime::new(2).par_map(&[1.0f32, 2.0, 3.0, 4.0], |_, &x| x)
    });
    let payload = caught.expect_err("seeded violation outside capture must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("par_map"), "panic names the section: {msg}");
    assert!(msg.contains("blocks 0 and 1 overlap"), "{msg}");
}
