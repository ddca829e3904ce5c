//! Hostile-input property tests for the bounded wire parser.
//!
//! The regression these pin: wire integers used to be narrowed with bare
//! `as usize` casts *before* any bounds check, so a hostile `src` like
//! `2^63` wrapped into a plausible small index on 32-bit targets and an
//! out-of-range one on 64-bit — either way the check ran on the mangled
//! value. [`parse_request_bounded`] must validate against
//! [`WireLimits`] on the original `u64` (or reject non-integers) before
//! any narrowing, and must never panic no matter what bytes arrive.

use harp_serve::{parse_request_bounded, ProtocolErrorKind, Request, WireLimits};
use proptest::prelude::*;
use serde_json::Value;

fn limits() -> WireLimits {
    WireLimits::for_nodes(4)
}

/// Node-id strategy biased toward the values that break naive casts:
/// in-range ids, barely-out-of-range ids, and giants that wrap on every
/// narrowing width.
fn hostile_node_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,                                               // in range
        4u64..64,                                              // just out of range
        (u64::from(u32::MAX) - 2)..=(u64::from(u32::MAX) + 2), // wraps as u32
        (u64::MAX - 4)..=u64::MAX,                             // wraps as anything narrower
        prop_oneof![
            Just(1u64 << 31),
            Just(1u64 << 32),
            Just(1u64 << 48),
            Just(1u64 << 63)
        ],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics, whatever bytes the line holds.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..300),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_request_bounded(&line, &limits());
        let _ = parse_request_bounded(&line, &WireLimits::unbounded());
    }

    /// JSON-shaped lines with hostile field values never panic, and every
    /// rejection renders as exactly one line of valid JSON with a typed
    /// `error_kind`.
    #[test]
    fn rejections_always_render_typed_single_line_json(
        id in 0u64..u64::MAX,
        ty_sel in 0usize..6,
        junk in hostile_node_id(),
    ) {
        let ty = ["infer", "stats", "warp", "", "topology_update", "\\u0000"][ty_sel];
        let line = format!(
            r#"{{"id": {id}, "type": "{ty}", "demands": {junk}, "epoch": {junk}}}"#
        );
        if let Err(e) = parse_request_bounded(&line, &limits()) {
            let resp = e.to_response();
            prop_assert_eq!(resp.matches('\n').count(), 1);
            prop_assert!(resp.ends_with('\n'));
            let v: Value = serde_json::from_str(&resp).expect("error response is JSON");
            prop_assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
            prop_assert!(v.get("error_kind").and_then(Value::as_str).is_some());
        }
    }

    /// Every node id ≥ the node count — including u64 values that would
    /// wrap under a narrowing cast — is rejected as out-of-range *with
    /// the request id preserved*, and in-range ids always parse.
    #[test]
    fn node_ids_are_validated_on_the_wire_integer(
        src in hostile_node_id(),
        dst in 0u64..4,
        // request ids are read exactly from their literal, all the way up
        req_id in 0u64..u64::MAX,
    ) {
        let line = format!(
            r#"{{"id": {req_id}, "type": "infer", "demands": [[{src}, {dst}, 1.0]]}}"#
        );
        match parse_request_bounded(&line, &limits()) {
            Ok((id, _)) => {
                prop_assert_eq!(id, req_id);
                prop_assert!(src < 4, "out-of-range src {} was accepted", src);
            }
            Err(e) => {
                prop_assert!(src >= 4, "in-range src {} was rejected: {}", src, e.reason);
                prop_assert_eq!(e.kind, ProtocolErrorKind::NodeOutOfRange);
                prop_assert_eq!(e.id, Some(req_id));
            }
        }
    }

    /// Negative and fractional node ids are rejected without panicking,
    /// whatever their magnitude.
    #[test]
    fn non_natural_node_ids_are_rejected(
        src in i64::MIN..0,
        frac in 0.001f64..0.999,
    ) {
        for rendered in [format!("{src}"), format!("{:.3}", src as f64 + frac)] {
            let line = format!(
                r#"{{"id": 1, "type": "infer", "demands": [[{rendered}, 0, 1.0]]}}"#
            );
            let e = parse_request_bounded(&line, &limits())
                .expect_err("negative node id must be rejected");
            prop_assert_eq!(e.kind, ProtocolErrorKind::NodeOutOfRange);
        }
    }

    /// A pin that is present but not a non-negative integer is refused
    /// as an invalid request — it used to be dropped, so the request was
    /// served unpinned or with the default deadline — and a well-typed
    /// pin still parses.
    #[test]
    fn mistyped_pins_are_rejected(
        req_id in 0u64..u64::MAX,
        key_sel in 0usize..2,
        bad_sel in 0usize..8,
        good in 0u64..u64::MAX,
    ) {
        let key = ["epoch", "deadline_ms"][key_sel];
        let bad = ["\"3\"", "-1", "2.5", "null", "true", "[3]", "{}", "1e20"][bad_sel];
        let line = |pin: &str| {
            format!(r#"{{"id": {req_id}, "type": "infer", "demands": [[0, 1, 1.0]], "{key}": {pin}}}"#)
        };
        let e = parse_request_bounded(&line(bad), &limits())
            .expect_err("a mistyped pin must be rejected");
        prop_assert_eq!(e.kind, ProtocolErrorKind::InvalidRequest);
        prop_assert_eq!(e.id, Some(req_id));
        prop_assert!(e.reason.contains(key), "{}", e.reason);
        match parse_request_bounded(&line(&good.to_string()), &limits()) {
            Ok((_, Request::Infer { deadline_ms, epoch, .. })) => {
                let pin = if key == "epoch" { epoch } else { deadline_ms };
                prop_assert_eq!(pin, Some(good));
            }
            other => prop_assert!(false, "well-typed pin rejected: {:?}", other),
        }
    }

    /// Demand lists over the cap are refused as too large — the parser
    /// must not materialize unbounded server state from one line.
    #[test]
    fn oversized_demand_lists_are_too_large(extra in 1usize..32) {
        let lim = limits();
        let n = lim.max_demands + extra;
        let demands: Vec<String> = (0..n).map(|_| "[0, 1, 1.0]".to_string()).collect();
        let line = format!(
            r#"{{"id": 2, "type": "infer", "demands": [{}]}}"#,
            demands.join(", ")
        );
        let e = parse_request_bounded(&line, &lim).expect_err("over-cap list must be rejected");
        prop_assert_eq!(e.kind, ProtocolErrorKind::TooLarge);
        prop_assert_eq!(e.id, Some(2));
    }
}
