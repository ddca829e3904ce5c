//! `Tape::scoped` under per-op timing: ops recorded inside a scope land in
//! the `tape.fwd.*` histograms like any other, and the tape reports the
//! arena it needed resident, not the bytes it wrote. Its own test binary
//! because the observability sink is process-wide and first caller wins.

use harp_obs::Config;
use harp_tensor::Tape;

fn histogram(name: &str) -> (u64, u64) {
    let (_, hists) = harp_obs::metrics_snapshot();
    hists
        .iter()
        .find(|h| h.name == name)
        .map_or((0, 0), |h| (h.count, h.max))
}

#[test]
fn ops_inside_a_scope_are_timed_and_the_peak_is_the_widest_tile() {
    let sink = std::env::temp_dir().join("harp_tensor_scoped_timing.jsonl");
    assert!(harp_obs::init(Config::jsonl_to(sink).with_op_timing()));

    let mut t = Tape::new();
    let x = t.constant(vec![8], vec![1.0; 8]);
    for rows in [8usize, 64, 16] {
        t.scoped(|t| {
            let tile = t.zeros(vec![rows]);
            let _ = t.tanh(tile);
        });
    }
    let _ = t.mul_scalar(x, -1.0);
    assert_eq!(histogram("tape.fwd.Tanh").0, 3);
    assert_eq!(histogram("tape.fwd.MulScalar").0, 1);
    assert_eq!(
        histogram("tape.arena_peak_bytes").0,
        0,
        "recorded at teardown"
    );
    drop(t);
    // the input plus the widest tile's two values; 8 + 8 after the scopes
    assert_eq!(histogram("tape.arena_peak_bytes"), (1, (8 + 2 * 64) * 4));
}
