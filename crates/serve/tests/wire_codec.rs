//! The wire codec held to the code it replaced.
//!
//! * **Writer.** `serde_json::write_f64` (Ryū digits in `Display`'s
//!   layout) against the `write_number` it replaced, kept here verbatim as
//!   the oracle: edge values, a million random bit patterns, every 997th
//!   `f32`, and — `#[ignore]`d, run in release — every `f32`.
//! * **Decoder.** `parse_request_bounded` (one pass over the lexer's
//!   tokens) against the `Value`-tree decoder it replaced, kept here as
//!   [`reference`] the way `harp-paths`' `yen_reference` keeps the old Yen.
//!   Both run over generated valid, mutated and hostile lines: results are
//!   equal bit for bit, errors carry the same id and kind and — except for
//!   `invalid_json`, whose reason names a lexer position — the same reason.
//! * **Replies.** `infer_response` / `degraded_response` against
//!   `ok_response` over the `json!` tree they replaced.
//! * **Ids.** Ids above 2^53 round-trip exactly through a live daemon.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use harp_core::{Harp, HarpConfig, SplitModel};
use harp_paths::TunnelSet;
use harp_serve::{
    degraded_response, infer_response, ok_response, parse_request_bounded, serve, ProtocolError,
    ProtocolErrorKind, Request, ServeConfig, WireLimits,
};
use harp_tensor::ParamStore;
use harp_topology::Topology;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde_json::Value;

// ---- the writer ----

/// `write_number` as the vendored `serde_json` had it before it wrote its
/// own digits: the oracle.
fn write_number_before(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Inf; emit null like serde_json's arbitrary
        // precision mode would reject — callers only persist finite values.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Compares one value; reuses the two buffers.
struct WriterCheck {
    before: String,
    now: String,
}

impl WriterCheck {
    fn new() -> Self {
        WriterCheck {
            before: String::new(),
            now: String::new(),
        }
    }

    fn check(&mut self, x: f64) {
        self.before.clear();
        self.now.clear();
        write_number_before(&mut self.before, x);
        serde_json::write_f64(&mut self.now, x);
        assert_eq!(self.now, self.before, "bits {:#018x}", x.to_bits());
    }

    /// `x`, its sign flip and its bitwise neighbours.
    fn around(&mut self, x: f64) {
        for y in [x, -x] {
            let b = y.to_bits();
            for bits in [b.wrapping_sub(1), b, b.wrapping_add(1)] {
                self.check(f64::from_bits(bits));
            }
        }
    }
}

#[test]
fn writer_matches_the_old_write_number_on_edges() {
    let mut w = WriterCheck::new();
    for x in [
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::INFINITY,
        f64::NAN,
        1.0,
        0.1,
        0.3,
        1.0 / 3.0,
        2.0 / 3.0,
    ] {
        w.around(x);
    }
    // subnormals: the smallest, the largest, and a spread between
    for bits in (1..2_000u64).chain((0..2_000).map(|k| (1 << 52) - 1 - k)) {
        w.around(f64::from_bits(bits));
    }
    for bits in (0..52).map(|s| 1u64 << s) {
        w.around(f64::from_bits(bits));
    }
    // every power of ten, and every power of two, with neighbours
    for e in -325..=308 {
        w.around(format!("1e{e}").parse().unwrap());
    }
    for e in -1074..=1023 {
        w.around(2f64.powi(e));
    }
    // the integral branch's edge, and the integers around 2^53, 2^63, 2^64
    for x in [9e15, 8_999_999_999_999_999.0, 9_007_199_254_740_992.0] {
        w.around(x);
    }
    for k in -4_000..4_000 {
        w.check(9e15 + f64::from(k));
        w.check(2f64.powi(63) + f64::from(k) * 1024.0);
        w.check(2f64.powi(64) + f64::from(k) * 4096.0);
    }
    // exact ties between two shortest candidates: `Display` rounds them up
    for k in 0..4_000u32 {
        w.around(2f64.powi(50) + f64::from(k) + 0.25);
        w.around(2f64.powi(50) + f64::from(k) + 0.75);
    }
}

#[test]
fn writer_matches_the_old_write_number_on_random_bits() {
    let mut w = WriterCheck::new();
    let mut rng = StdRng::seed_from_u64(0x05ee_df64);
    for _ in 0..1_000_000 {
        w.check(f64::from_bits(rng.gen::<u64>()));
    }
    // splits are fractions in [0, 1]: the reply's common case
    for _ in 0..200_000 {
        w.check(rng.gen::<f64>());
    }
    for bits in (0..=u32::MAX).step_by(997) {
        w.check(f64::from(f32::from_bits(bits)));
    }
}

/// Every `f32` widened to `f64`, split over the machine's cores. Run in
/// release: `cargo test --release -p harp-serve --test wire_codec --
/// --ignored`.
#[test]
#[ignore = "sweeps 2^32 values; run in release"]
fn writer_matches_the_old_write_number_on_every_f32() {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get()) as u64;
    let span = (1u64 << 32) / threads + 1;
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut w = WriterCheck::new();
                let end = ((t + 1) * span).min(1 << 32);
                for bits in t * span..end {
                    w.check(f64::from(f32::from_bits(bits as u32)));
                }
            });
        }
    });
}

// ---- the decoder ----

/// The decoder `parse_request_bounded` had before it read tokens: build the
/// `Value` tree with the old parser, then look the fields up. Two
/// deliberate changes ride on
/// it, so it states the wire as it is now: a present but mistyped pin is an
/// error (the old code dropped it), and `Value::as_u64` no longer saturates
/// at 2^64. Ids are exact only up to 2^53 here, so the generators stay
/// below that.
mod reference {
    use super::*;
    use ProtocolErrorKind as K;

    fn err(id: Option<u64>, kind: ProtocolErrorKind, reason: impl Into<String>) -> ProtocolError {
        ProtocolError {
            id,
            kind,
            reason: reason.into(),
        }
    }

    /// The recursive-descent parser `serde_json::from_str` used before it
    /// became a consumer of the pull lexer, verbatim but for its error
    /// type: the reference for the grammar itself.
    pub mod tree {
        use serde_json::{Map, Value};

        /// Parse one JSON document; trailing non-whitespace is an error.
        pub fn parse(s: &str) -> Result<Value, String> {
            let mut p = Parser {
                bytes: s.as_bytes(),
                pos: 0,
            };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.err("trailing characters"));
            }
            Ok(v)
        }

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl<'a> Parser<'a> {
            fn err(&self, msg: &str) -> String {
                format!("{msg} at byte {}", self.pos)
            }

            fn peek(&self) -> Option<u8> {
                self.bytes.get(self.pos).copied()
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn expect(&mut self, b: u8) -> Result<(), String> {
                if self.peek() == Some(b) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(self.err(&format!("expected '{}'", b as char)))
                }
            }

            fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
                if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    Ok(v)
                } else {
                    Err(self.err("invalid literal"))
                }
            }

            fn value(&mut self) -> Result<Value, String> {
                match self.peek() {
                    Some(b'n') => self.literal("null", Value::Null),
                    Some(b't') => self.literal("true", Value::Bool(true)),
                    Some(b'f') => self.literal("false", Value::Bool(false)),
                    Some(b'"') => Ok(Value::String(self.string()?)),
                    Some(b'[') => self.array(),
                    Some(b'{') => self.object(),
                    Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                    _ => Err(self.err("expected a value")),
                }
            }

            fn array(&mut self) -> Result<Value, String> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }

            fn object(&mut self) -> Result<Value, String> {
                self.expect(b'{')?;
                let mut map = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }

            fn string(&mut self) -> Result<String, String> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    match self.peek() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(out);
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek() {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b'r') => out.push('\r'),
                                Some(b't') => out.push('\t'),
                                Some(b'b') => out.push('\u{8}'),
                                Some(b'f') => out.push('\u{c}'),
                                Some(b'u') => {
                                    if self.pos + 4 >= self.bytes.len() {
                                        return Err(self.err("bad \\u escape"));
                                    }
                                    let hex = std::str::from_utf8(
                                        &self.bytes[self.pos + 1..self.pos + 5],
                                    )
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                    let code = u32::from_str_radix(hex, 16)
                                        .map_err(|_| self.err("bad \\u escape"))?;
                                    // Surrogate pairs are not produced by our printer;
                                    // map lone surrogates to the replacement char.
                                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                    self.pos += 4;
                                }
                                _ => return Err(self.err("bad escape")),
                            }
                            self.pos += 1;
                        }
                        Some(_) => {
                            // advance over one UTF-8 scalar
                            let start = self.pos;
                            self.pos += 1;
                            while self.pos < self.bytes.len()
                                && (self.bytes[self.pos] & 0xC0) == 0x80
                            {
                                self.pos += 1;
                            }
                            let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| self.err("invalid utf-8"))?;
                            out.push_str(chunk);
                        }
                    }
                }
            }

            fn number(&mut self) -> Result<Value, String> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
                if self.peek() == Some(b'.') {
                    self.pos += 1;
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
                if matches!(self.peek(), Some(b'e' | b'E')) {
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid number"))?;
                text.parse::<f64>()
                    .map(Value::from)
                    .map_err(|_| self.err("invalid number"))
            }
        }
    }

    pub fn parse(line: &str, limits: &WireLimits) -> Result<(u64, Request), ProtocolError> {
        let v: Value = tree::parse(line.trim())
            .map_err(|e| err(None, K::InvalidJson, format!("invalid JSON: {e:?}")))?;
        if v.as_object().is_none() {
            return Err(err(
                None,
                K::InvalidJson,
                "request line is not a JSON object",
            ));
        }
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| err(None, K::InvalidRequest, "missing numeric 'id'"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| err(Some(id), K::InvalidRequest, "missing string 'type'"))?;
        let in_request = |(k, r)| err(Some(id), k, r);
        let req = match ty {
            "infer" => Request::Infer {
                demands: parse_demands(&v, limits).map_err(in_request)?,
                deadline_ms: pin(&v, "deadline_ms").map_err(in_request)?,
                epoch: pin(&v, "epoch").map_err(in_request)?,
            },
            "topology_update" => Request::TopologyUpdate {
                fail_links: parse_links(&v, "fail_links", limits).map_err(in_request)?,
                restore_links: parse_links(&v, "restore_links", limits).map_err(in_request)?,
            },
            "reload_checkpoint" => Request::ReloadCheckpoint {
                path: v
                    .get("path")
                    .and_then(Value::as_str)
                    .ok_or_else(|| {
                        err(
                            Some(id),
                            K::InvalidRequest,
                            "reload_checkpoint needs 'path'",
                        )
                    })?
                    .to_string(),
            },
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => {
                return Err(err(
                    Some(id),
                    K::InvalidRequest,
                    format!("unknown request type {other:?}"),
                ))
            }
        };
        Ok((id, req))
    }

    fn pin(v: &Value, key: &str) -> Result<Option<u64>, (ProtocolErrorKind, String)> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => x.as_u64().map(Some).ok_or_else(|| {
                (
                    K::InvalidRequest,
                    format!("'{key}' must be a non-negative integer"),
                )
            }),
        }
    }

    fn node_id(
        raw: &Value,
        what: impl Fn() -> String,
        limits: &WireLimits,
    ) -> Result<usize, (ProtocolErrorKind, String)> {
        let Some(u) = raw.as_u64() else {
            return Err((
                K::NodeOutOfRange,
                format!("{}: {raw:?} is not a non-negative integer node id", what()),
            ));
        };
        match usize::try_from(u) {
            Ok(idx) if idx < limits.max_node => Ok(idx),
            _ => Err((
                K::NodeOutOfRange,
                format!(
                    "{}: node id {u} is out of range (topology has {} nodes)",
                    what(),
                    limits.max_node
                ),
            )),
        }
    }

    #[allow(clippy::type_complexity)]
    fn parse_demands(
        v: &Value,
        limits: &WireLimits,
    ) -> Result<Vec<(usize, usize, f64)>, (ProtocolErrorKind, String)> {
        let arr = v.get("demands").and_then(Value::as_array).ok_or((
            K::InvalidRequest,
            "infer needs 'demands': [[src, dst, demand], ..]".to_string(),
        ))?;
        if arr.len() > limits.max_demands {
            return Err((
                K::TooLarge,
                format!(
                    "demands has {} triples, limit is {}",
                    arr.len(),
                    limits.max_demands
                ),
            ));
        }
        let mut out = Vec::with_capacity(arr.len());
        for (i, triple) in arr.iter().enumerate() {
            let t = triple.as_array().filter(|t| t.len() == 3).ok_or_else(|| {
                (
                    K::InvalidRequest,
                    format!("demands[{i}] is not a [src, dst, demand] triple"),
                )
            })?;
            let s = node_id(&t[0], || format!("demands[{i}].src"), limits)?;
            let d = node_id(&t[1], || format!("demands[{i}].dst"), limits)?;
            let demand = t[2].as_f64().ok_or_else(|| {
                (
                    K::InvalidRequest,
                    format!("demands[{i}]: demand is not a number"),
                )
            })?;
            if !demand.is_finite() || demand < 0.0 {
                return Err((
                    K::InvalidRequest,
                    format!("demands[{i}]: demand {demand} is not finite and >= 0"),
                ));
            }
            out.push((s, d, demand));
        }
        Ok(out)
    }

    #[allow(clippy::type_complexity)]
    fn parse_links(
        v: &Value,
        key: &str,
        limits: &WireLimits,
    ) -> Result<Vec<(usize, usize)>, (ProtocolErrorKind, String)> {
        let Some(arr) = v.get(key) else {
            return Ok(Vec::new());
        };
        let arr = arr.as_array().ok_or_else(|| {
            (
                K::InvalidRequest,
                format!("'{key}' must be an array of [u, v] pairs"),
            )
        })?;
        if arr.len() > limits.max_links {
            return Err((
                K::TooLarge,
                format!(
                    "{key} has {} pairs, limit is {}",
                    arr.len(),
                    limits.max_links
                ),
            ));
        }
        let mut out = Vec::with_capacity(arr.len());
        for (i, pair) in arr.iter().enumerate() {
            let p = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                (
                    K::InvalidRequest,
                    format!("{key}[{i}] is not a [u, v] pair"),
                )
            })?;
            let u = node_id(&p[0], || format!("{key}[{i}].u"), limits)?;
            let w = node_id(&p[1], || format!("{key}[{i}].v"), limits)?;
            out.push((u, w));
        }
        Ok(out)
    }
}

/// Decode `line` both ways and demand the same answer. Returns whether it
/// decoded, for the generators' coverage checks.
fn agree(line: &str, limits: &WireLimits) -> bool {
    // The grammar: the lexer-built tree against the old parser's.
    match (
        serde_json::from_str::<Value>(line),
        reference::tree::parse(line),
    ) {
        (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "line {line:?}"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("line {line:?}: from_str {a:?}, old parser {b:?}"),
    }
    let now = parse_request_bounded(line, limits);
    let before = reference::parse(line, limits);
    match (&now, &before) {
        // `Debug` prints each f64's shortest round-trip digits, sign of
        // zero included, so equal text is equal bits.
        (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "line {line:?}"),
        (Err(a), Err(b)) => {
            assert_eq!(
                (a.id, a.kind),
                (b.id, b.kind),
                "line {line:?}: {a:?} vs {b:?}"
            );
            if a.kind != ProtocolErrorKind::InvalidJson {
                assert_eq!(a.reason, b.reason, "line {line:?}");
            }
        }
        _ => panic!("line {line:?}: now {now:?}, before {before:?}"),
    }
    now.is_ok()
}

fn pick<'a, T: ?Sized>(rng: &mut StdRng, xs: &[&'a T]) -> &'a T {
    xs[rng.gen_range(0..xs.len())]
}

/// Optional insignificant whitespace.
fn ws(rng: &mut StdRng) -> &'static str {
    pick(rng, &["", "", "", " ", "\n", "\t ", "\r\n "])
}

/// The same integer spelled several ways JSON (and this lexer) allows.
fn int_literal(rng: &mut StdRng, n: u64) -> String {
    match rng.gen_range(0..8) {
        0 => format!("{n}.0"),
        1 => format!("{n}e0"),
        2 => format!("{n}00E-2"),
        3 => format!("0{n}"),
        4 if n == 0 => "-0".to_string(),
        _ => n.to_string(),
    }
}

/// A non-negative float in one of its spellings.
fn float_literal(rng: &mut StdRng, x: f64) -> String {
    match rng.gen_range(0..6) {
        0 => format!("{x:e}"),
        1 => format!("{x:E}"),
        2 => format!("{x:.3}"),
        3 => format!("{x:?}"),
        _ => format!("{x}"),
    }
}

/// A JSON value that is not a number, for the fields that want one.
fn junk(rng: &mut StdRng) -> String {
    pick(
        rng,
        &[
            "null",
            "true",
            "false",
            "\"3\"",
            "\"a\\\"b\\u0041\\n\"",
            "\"\\/\\b\\f\\r\\t\\\\\\u00e9 é\"",
            "[]",
            "[1, [2, {\"k\": null}]]",
            "{}",
            "{\"b\": 1, \"a\": [2.5, \"x\"], \"b\": 3}",
        ],
    )
    .to_string()
}

/// A node id: mostly in range, sometimes any of the ways to be wrong.
fn node(rng: &mut StdRng, nodes: u64, spread: u32) -> String {
    match rng.gen_range(0..20 * spread) {
        0 => {
            let n = nodes + rng.gen_range(0..3u64);
            int_literal(rng, n)
        }
        1 => format!("-{}", rng.gen_range(1..5)),
        2 => format!("{}.5", rng.gen_range(0..nodes)),
        3 => pick(
            rng,
            &[
                "1e20",
                "18446744073709551615",
                "18446744073709551616",
                "4294967296",
                "1e999",
                "-1e999",
                "9007199254740993",
            ],
        )
        .to_string(),
        4 => junk(rng),
        _ => {
            let n = rng.gen_range(0..nodes);
            int_literal(rng, n)
        }
    }
}

fn demand(rng: &mut StdRng, spread: u32) -> String {
    match rng.gen_range(0..24 * spread) {
        0 => pick(
            rng,
            &["-0", "-0.0", "0", "-1", "-2.5e-3", "1e999", "1e-400"],
        )
        .to_string(),
        1 => junk(rng),
        2 => {
            let n = rng.gen_range(0..100);
            int_literal(rng, n)
        }
        _ => {
            let x = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-6..6));
            float_literal(rng, x)
        }
    }
}

/// A wire list of `n`-tuples whose items come from `item`; now and then an
/// element of the wrong length or shape.
fn tuples(
    rng: &mut StdRng,
    len: usize,
    n: usize,
    spread: u32,
    mut item: impl FnMut(&mut StdRng, usize) -> String,
) -> String {
    let mut out = String::from("[");
    for e in 0..len {
        if e > 0 {
            out.push(',');
            out.push_str(ws(rng));
        }
        match rng.gen_range(0..40 * spread) {
            0 => out.push_str(&junk(rng)),
            1 => out.push('3'),
            2 | 3 => {
                // one item short or long
                let k = if rng.gen_bool(0.5) { n - 1 } else { n + 1 };
                let items: Vec<String> = (0..k).map(|i| item(rng, i.min(n - 1))).collect();
                write!(out, "[{}]", items.join(",")).unwrap();
            }
            _ => {
                let items: Vec<String> = (0..n).map(|i| item(rng, i)).collect();
                write!(out, "[{}{}]", ws(rng), items.join(&format!(",{}", ws(rng)))).unwrap();
            }
        }
    }
    out.push(']');
    out
}

/// One request line: random member order, optional extras, duplicates and
/// escaped keys, mostly well-formed.
fn request_line(rng: &mut StdRng, nodes: u64) -> String {
    // Half the lines are noisy; in the rest a wrong shape is rare.
    let spread = if rng.gen_bool(0.5) { 1 } else { 50 };
    let ty = match rng.gen_range(0..30 * spread) {
        0 => "\"topology_update\"".to_string(),
        1 => "\"reload_checkpoint\"".to_string(),
        2 => "\"stats\"".to_string(),
        3 => "\"shutdown\"".to_string(),
        4 => pick(
            rng,
            &["\"warp\"", "\"\"", "\"inf\\u0065r\"", "\"é\\t\"", "7"],
        )
        .to_string(),
        _ => "\"infer\"".to_string(),
    };
    let mut members: Vec<(String, String)> = Vec::new();
    if rng.gen_range(0..30 * spread) > 0 {
        members.push(("type".into(), ty));
    }
    let id = match rng.gen_range(0..30 * spread) {
        0 => None,
        1 => Some(junk(rng)),
        2 => Some(pick(rng, &["-1", "2.5", "1e20", "18446744073709551616", "-0.0"]).to_string()),
        _ => {
            let n = rng.gen_range(0..1_000_000_000_000);
            Some(int_literal(rng, n))
        }
    };
    if let Some(id) = id {
        members.push(("id".into(), id));
    }
    let len = rng.gen_range(0..12);
    members.push((
        "demands".into(),
        tuples(rng, len, 3, spread, |rng, i| {
            if i == 2 {
                demand(rng, spread)
            } else {
                node(rng, nodes, spread)
            }
        }),
    ));
    for key in ["fail_links", "restore_links"] {
        if rng.gen_bool(0.15) {
            let len = rng.gen_range(0..4);
            members.push((
                key.into(),
                tuples(rng, len, 2, spread, |rng, _| node(rng, nodes, spread)),
            ));
        }
    }
    for key in ["epoch", "deadline_ms"] {
        match rng.gen_range(0..10) {
            0 => {
                let n = rng.gen_range(0..1_000);
                members.push((key.into(), int_literal(rng, n)));
            }
            1 => members.push((
                key.into(),
                pick(rng, &["\"3\"", "-1", "2.5", "null", "[3]", "1e20"]).to_string(),
            )),
            _ => {}
        }
    }
    if rng.gen_bool(0.1) {
        let path = if rng.gen_bool(0.8) {
            "\"ckpt/m\\u00e9.json\"".to_string()
        } else {
            junk(rng)
        };
        members.push(("path".into(), path));
    }
    if rng.gen_bool(0.2) {
        members.push(("extra".into(), junk(rng)));
    }
    if rng.gen_bool(0.1) {
        // a later duplicate wins
        let (k, _) = members[rng.gen_range(0..members.len())].clone();
        let v = if k == "demands" {
            tuples(rng, 2, 3, 1, |_, i| ["0", "1", "2.5"][i].to_string())
        } else {
            junk(rng)
        };
        members.push((k, v));
    }
    // shuffle the member order
    for i in (1..members.len()).rev() {
        members.swap(i, rng.gen_range(0..=i));
    }
    let mut line = format!("{}{{", ws(rng));
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let key = if rng.gen_bool(0.05) && k == "id" {
            "\\u0069d".to_string()
        } else {
            k.clone()
        };
        write!(
            line,
            "{}\"{key}\"{}:{}{v}{}",
            ws(rng),
            ws(rng),
            ws(rng),
            ws(rng)
        )
        .unwrap();
    }
    line.push('}');
    line.push_str(ws(rng));
    line
}

/// Limits for a topology of `nodes`, sometimes tight enough to trip
/// `too_large`.
fn limits(rng: &mut StdRng, nodes: u64) -> WireLimits {
    let mut l = WireLimits::for_nodes(nodes as usize);
    if rng.gen_bool(0.2) {
        l.max_demands = rng.gen_range(0..6);
        l.max_links = rng.gen_range(0..3);
    }
    l
}

/// 1–3 random character edits: the syntax errors a broken client makes.
fn mutate(rng: &mut StdRng, line: &str) -> String {
    const BYTES: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', '0', '7', '-', '.', 'e', '+', ' ', 'n', 't', 'u',
        'l', 'x',
    ];
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.gen_range(1..4) {
        let at = rng.gen_range(0..=chars.len());
        match rng.gen_range(0..4) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 if at < chars.len() => chars[at] = BYTES[rng.gen_range(0..BYTES.len())],
            2 => chars.truncate(at),
            _ => chars.insert(at, BYTES[rng.gen_range(0..BYTES.len())]),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn decoder_matches_the_tree_decoder_on_generated_lines() {
    let mut rng = StdRng::seed_from_u64(0xdec0de);
    let (mut ok, mut total) = (0, 0);
    for _ in 0..20_000 {
        let nodes = rng.gen_range(1..40);
        let limits = limits(&mut rng, nodes);
        let line = request_line(&mut rng, nodes);
        ok += usize::from(agree(&line, &limits));
        agree(&line, &WireLimits::unbounded());
        agree(&mutate(&mut rng, &line), &limits);
        total += 1;
    }
    // the generator mostly makes requests that decode
    assert!(ok * 5 > total, "only {ok} of {total} lines decoded");
}

#[test]
fn decoder_matches_the_tree_decoder_on_hostile_lines() {
    let limits = WireLimits::for_nodes(4);
    let deep = |d: usize| format!("{}1{}", "[".repeat(d), "]".repeat(d));
    let mut lines: Vec<String> = [
        "",
        "   ",
        "\u{a0}{\"id\":1,\"type\":\"stats\"}\u{3000}",
        "\u{feff}{\"id\":1,\"type\":\"stats\"}",
        "[1,2]",
        "\"s\"",
        "3",
        "null",
        "{}",
        "{\"id\":1}",
        "{\"id\":1,\"type\":\"stats\"} x",
        "{\"id\":1,\"type\":\"stats\"}}",
        "{\"id\":1,\"type\":\"stats\",}",
        "{\"id\":1 \"type\":\"stats\"}",
        "{\"id\" 1}",
        "{1:2}",
        "{\"id\":01,\"type\":\"stats\"}",
        "{\"id\":1.,\"type\":\"stats\"}",
        "{\"id\":-.5,\"type\":\"stats\"}",
        "{\"id\":+1,\"type\":\"stats\"}",
        "{\"id\":1e,\"type\":\"stats\"}",
        "{\"id\":-,\"type\":\"stats\"}",
        "{\"id\":1,\"type\":\"\\u+041\"}",
        "{\"id\":1,\"type\":\"\\ud800\"}",
        "{\"id\":1,\"type\":\"\\u00\"}",
        "{\"id\":1,\"type\":\"\\x\"}",
        "{\"id\":1,\"type\":\"unterminated}",
        "{\"id\":1,\"type\":\"stats\",\"x\":nul}",
        "{\"id\":1,\"type\":\"stats\",\"x\":tru}",
        "{\"id\":1e999,\"type\":\"stats\"}",
        "{\"id\":0e99999999999999999999,\"type\":\"stats\"}",
        "{\"id\":18446744073709551615e-19,\"type\":\"stats\"}",
        "{\"id\":7,\"type\":\"infer\",\"demands\":[[0,1,1e999]]}",
        "{\"id\":7,\"type\":\"infer\",\"demands\":[[{\"z\":1,\"a\":[\"\\u0001\"]},1,1]]}",
        "{\"id\":7,\"type\":\"infer\",\"demands\":[[0,1,1],[9,9,9,9]],\"demands\":[]}",
        "{\"id\":7,\"type\":\"infer\",\"demands\":{}}",
        "{\"id\":7,\"type\":\"infer\"}",
        "{\"id\":7,\"type\":\"topology_update\",\"fail_links\":{}}",
        "{\"id\":7,\"type\":\"topology_update\",\"restore_links\":[[0,1],[1]]}",
        "{\"id\":7,\"type\":\"reload_checkpoint\",\"path\":null}",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for d in [1, 2, 10, 100] {
        lines.push(format!("{{\"id\":2,\"type\":\"stats\",\"x\":{}}}", deep(d)));
        lines.push(format!(
            "{{\"id\":2,\"type\":\"infer\",\"demands\":[[{},0,1]]}}",
            deep(d)
        ));
        lines.push(deep(d));
        lines.push("[".repeat(d));
    }
    let big: Vec<String> = (0..5_000)
        .map(|i| format!("[{},{},0.5]", i % 4, (i + 1) % 4))
        .collect();
    lines.push(format!(
        "{{\"id\":3,\"type\":\"infer\",\"demands\":[{}]}}",
        big.join(",")
    ));
    for line in &lines {
        agree(line, &limits);
        agree(line, &WireLimits::unbounded());
    }
}

/// Where the decoder deliberately parts from the tree decoder: `id`,
/// `epoch` and `deadline_ms` are read from the literal's exact value, not
/// through `f64`.
#[test]
fn request_integers_are_read_exactly() {
    let id_of = |lit: &str| {
        parse_request_bounded(
            &format!("{{\"id\":{lit},\"type\":\"stats\"}}"),
            &WireLimits::unbounded(),
        )
        .map(|(id, _)| id)
        .map_err(|e| (e.id, e.kind))
    };
    for (lit, id) in [
        ("7", 7),
        ("7.0", 7),
        ("0.7e1", 7),
        ("700E-2", 7),
        ("-0", 0),
        ("0e999999999999999999999", 0),
        ("9007199254740993", (1 << 53) + 1),
        ("18446744073709551615", u64::MAX),
        ("1844674407370955161.5e1", u64::MAX),
    ] {
        assert_eq!(id_of(lit), Ok(id), "{lit}");
    }
    // Through f64 the last three read as 0, 2 and 0; the first saturated.
    for lit in [
        "18446744073709551616",
        "1e20",
        "-1",
        "2.5",
        "1e99999999999999999999",
        "1e-400",
        "2.0000000000000001",
        "1e-99999999999999999999",
        "10e9223372036854775807",
        "1.5e-9223372036854775808",
        "1e4294967296",
    ] {
        assert_eq!(
            id_of(lit),
            Err((None, ProtocolErrorKind::InvalidRequest)),
            "{lit}"
        );
    }
    // The pins follow the same rule.
    let pinned = |lit: &str| {
        parse_request_bounded(
            &format!("{{\"id\":1,\"type\":\"infer\",\"demands\":[],\"epoch\":{lit}}}"),
            &WireLimits::unbounded(),
        )
    };
    assert!(matches!(
        pinned("18446744073709551615"),
        Ok((
            1,
            Request::Infer {
                epoch: Some(u64::MAX),
                ..
            }
        ))
    ));
    let e = pinned("1e-400").unwrap_err();
    assert_eq!((e.id, e.kind), (Some(1), ProtocolErrorKind::InvalidRequest));
}

// ---- the replies ----

#[test]
fn infer_replies_match_the_tree_they_replaced() {
    let mut rng = StdRng::seed_from_u64(0x0e91);
    for _ in 0..300 {
        let n = rng.gen_range(0..400);
        let splits: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => 1.0,
                2 => rng.gen::<f64>() * 1e-9,
                _ => rng.gen::<f64>(),
            })
            .collect();
        let id = rng.gen_range(0..=1u64 << 53);
        let epoch = rng.gen_range(0..1u64 << 40);
        let generation = rng.gen_range(0..1_000u64);
        let latency_us = rng.gen_range(0..10_000_000u64);
        let mlu = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-3..4));
        assert_eq!(
            infer_response(id, epoch, generation, latency_us, mlu, &splits),
            ok_response(
                id,
                serde_json::json!({
                    "epoch": epoch,
                    "generation": generation,
                    "degraded": false,
                    "mlu": mlu,
                    "splits": Value::from(splits.clone()),
                    "latency_us": latency_us,
                }),
            )
        );
        let (reason, source) = if rng.gen_bool(0.5) {
            ("deadline_miss", "last_good")
        } else {
            ("model_error", "uniform_ecmp")
        };
        assert_eq!(
            degraded_response(id, epoch, latency_us, reason, &splits, source),
            ok_response(
                id,
                serde_json::json!({
                    "epoch": epoch,
                    "degraded": true,
                    "reason": reason,
                    "splits_source": source,
                    "splits": Value::from(splits.clone()),
                    "latency_us": latency_us,
                }),
            )
        );
    }
}

// ---- ids through a live daemon ----

#[test]
fn ids_beyond_two_to_the_53_round_trip_through_a_live_daemon() {
    let mut topo = Topology::new(4);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        topo.add_link(u, v, 10.0).unwrap();
    }
    let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 2, 3], 3, 0.0);
    let mut store = ParamStore::new();
    let harp = Harp::new(
        &mut store,
        &mut StdRng::seed_from_u64(5),
        HarpConfig {
            gnn_layers: 1,
            gnn_hidden: 4,
            d_model: 8,
            settrans_layers: 1,
            heads: 1,
            d_ff: 8,
            mlp_hidden: 8,
            rau_iters: 1,
        },
    );
    let model: Arc<dyn SplitModel + Send + Sync> = Arc::new(harp);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        deadline_ms: 10_000,
        ..ServeConfig::default()
    };
    let handle = serve(cfg, model, store, topo, tunnels).expect("bind loopback");
    let writer = TcpStream::connect(handle.addr()).expect("connect");
    writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut writer = writer;
    let mut roundtrip = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };

    for id in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
        let reply = roundtrip(&format!(
            "{{\"id\":{id},\"type\":\"infer\",\"demands\":[[0,2,1.5],[3,1,0.5]],\"epoch\":0}}"
        ));
        assert!(reply.contains(&format!(",\"id\":{id},")), "{reply}");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let reply = roundtrip(&format!("{{\"id\":{id},\"type\":\"stats\"}}"));
        assert!(reply.contains(&format!("\"id\":{id},")), "{reply}");
        let reply = roundtrip(&format!("{{\"id\":{id},\"type\":\"warp\"}}"));
        assert!(reply.contains(&format!("\"id\":{id},")), "{reply}");
    }
    for id in ["1e20", "18446744073709551616", "-1", "2.5"] {
        let reply = roundtrip(&format!("{{\"id\":{id},\"type\":\"stats\"}}"));
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["error_kind"], "invalid_request", "{reply}");
        assert!(v["id"].is_null(), "{reply}");
    }
    // a mistyped pin is refused, not dropped
    let reply = roundtrip("{\"id\":9,\"type\":\"infer\",\"demands\":[[0,2,1]],\"epoch\":\"0\"}");
    let v: Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["error_kind"], "invalid_request", "{reply}");
    assert_eq!(v["id"], 9, "{reply}");
    handle.shutdown();
}
