//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line with a numeric `id` (echoed
//! back) and a `type`; every response is one JSON object on one line with
//! the same `id` plus `ok` (and `error` + `error_kind` when `ok` is false).
//! Requests:
//!
//! | `type` | fields | reply payload |
//! |---|---|---|
//! | `infer` | `demands: [[src, dst, demand], ..]`, optional `deadline_ms`, optional `epoch` pin | `epoch`, `degraded`, `mlu`, `splits`, `latency_us` |
//! | `topology_update` | `fail_links: [[u, v], ..]`, `restore_links: [[u, v], ..]` | `epoch`, `num_flows`, `num_tunnels`, `failed_links` |
//! | `reload_checkpoint` | `path` | `epoch`, `params` |
//! | `stats` | — | counters + latency percentiles + per-shard table |
//! | `shutdown` | — | ack, then the fleet drains and exits |
//!
//! ## Hostile-input stance
//!
//! Wire integers are **validated before use**, not trusted: node ids are
//! checked against [`WireLimits::max_node`] (the served topology's node
//! count) and array lengths against `max_demands` / `max_links` at parse
//! time, so an out-of-range id can never reach indexing code. Violations
//! produce a typed [`ProtocolError`] whose [`ProtocolErrorKind`] is echoed
//! to the client as `error_kind`. The request integers `id`, `epoch` and
//! `deadline_ms` are read exactly from their literals (no `f64` in
//! between), so an id up to `u64::MAX` is echoed as sent, and a pin that
//! is present but not a non-negative integer is rejected rather than
//! ignored.
//!
//! ## Text
//!
//! Requests are decoded straight off [`serde_json::Lexer`]'s tokens, with
//! no `Value` tree; replies are written key by key into one buffer through
//! `serde_json`'s streaming writers, in sorted key order, so they read
//! exactly as the `Value` tree of the same members would print.

use serde_json::{Lexer, Token, Value};
use std::borrow::Cow;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Traffic matrix → per-tunnel splits.
    Infer {
        /// Sparse demands as `(src, dst, demand)` triples.
        demands: Vec<(usize, usize, f64)>,
        /// Per-request deadline override in milliseconds.
        deadline_ms: Option<u64>,
        /// When set, the request is only valid against this topology epoch.
        epoch: Option<u64>,
    },
    /// Fail and/or restore links (both directions), re-pruning tunnels.
    TopologyUpdate {
        /// Links to fail, as undirected `(u, v)` node pairs.
        fail_links: Vec<(usize, usize)>,
        /// Links to restore to their base capacity.
        restore_links: Vec<(usize, usize)>,
    },
    /// Swap in a new checkpoint after strict validation.
    ReloadCheckpoint {
        /// Path to a checkpoint written by `harp_nn::save_params`.
        path: String,
    },
    /// Serving counters and latency percentiles.
    Stats,
    /// Acknowledge, then drain and exit.
    Shutdown,
}

/// Bounds a request line is validated against at parse time. The serving
/// layer builds these from the live topology ([`WireLimits::for_nodes`]);
/// [`WireLimits::unbounded`] keeps standalone parsing (tests, tools)
/// permissive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireLimits {
    /// Node ids must be `< max_node` (the topology's node count).
    pub max_node: usize,
    /// Most demand triples accepted in one `infer`.
    pub max_demands: usize,
    /// Most link pairs accepted per `fail_links` / `restore_links` array.
    pub max_links: usize,
}

impl WireLimits {
    /// No bounds: any id that fits in `usize`, any array length.
    pub fn unbounded() -> Self {
        WireLimits {
            max_node: usize::MAX,
            max_demands: usize::MAX,
            max_links: usize::MAX,
        }
    }

    /// Limits for a topology with `n` nodes: ids `< n`, at most `4·n²`
    /// demand triples (a dense matrix is `n²`; the slack admits duplicate
    /// triples, which the server sums) and `4·n²` link pairs.
    pub fn for_nodes(n: usize) -> Self {
        let quad = n.saturating_mul(n).saturating_mul(4).max(16);
        WireLimits {
            max_node: n,
            max_demands: quad,
            max_links: quad,
        }
    }
}

/// Classification of a [`ProtocolError`], echoed on the wire as
/// `error_kind` so clients and chaos harnesses can assert on failure
/// classes instead of scraping message strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolErrorKind {
    /// The line is not a JSON object.
    InvalidJson,
    /// Valid JSON, but not a well-formed request (missing/mis-typed
    /// fields, unknown type, non-finite demand).
    InvalidRequest,
    /// A node id is negative, non-integral, or `>=` the topology's node
    /// count.
    NodeOutOfRange,
    /// An array exceeds the configured wire limits.
    TooLarge,
    /// The request line exceeded the byte cap before a newline arrived.
    Oversized,
}

impl ProtocolErrorKind {
    /// Stable wire code for the `error_kind` response field.
    pub fn code(self) -> &'static str {
        match self {
            ProtocolErrorKind::InvalidJson => "invalid_json",
            ProtocolErrorKind::InvalidRequest => "invalid_request",
            ProtocolErrorKind::NodeOutOfRange => "node_out_of_range",
            ProtocolErrorKind::TooLarge => "too_large",
            ProtocolErrorKind::Oversized => "oversized",
        }
    }
}

/// Why a request line could not be turned into a [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolError {
    /// The request `id`, when one could still be recovered (echoed back so
    /// the client can correlate the error).
    pub id: Option<u64>,
    /// Failure class (also sent on the wire as `error_kind`).
    pub kind: ProtocolErrorKind,
    /// Human-readable reason.
    pub reason: String,
}

impl ProtocolError {
    fn new(id: Option<u64>, kind: ProtocolErrorKind, reason: impl Into<String>) -> Self {
        ProtocolError {
            id,
            kind,
            reason: reason.into(),
        }
    }

    /// Render this error as a response line.
    pub fn to_response(&self) -> String {
        error_response_kind(self.id, self.kind, &self.reason)
    }
}

/// Parse one request line with no bounds (standalone tools and tests).
/// Serving code must use [`parse_request_bounded`] with the live
/// topology's [`WireLimits`].
pub fn parse_request(line: &str) -> Result<(u64, Request), ProtocolError> {
    parse_request_bounded(line, &WireLimits::unbounded())
}

/// Parse one request line, validating every wire integer against
/// `limits` before it is converted to an index. On success returns
/// `(id, request)`.
///
/// The line is read in one pass over [`serde_json::Lexer`]'s tokens, with
/// no `Value` tree: the fields a request needs are decoded as they go by
/// and everything else is skipped. A syntax error anywhere in the line
/// wins over any other error; on a duplicate key the last one counts.
pub fn parse_request_bounded(
    line: &str,
    limits: &WireLimits,
) -> Result<(u64, Request), ProtocolError> {
    use ProtocolErrorKind as K;
    let fields = Fields::read(line.trim(), limits)
        .map_err(|e| ProtocolError::new(None, K::InvalidJson, format!("invalid JSON: {e:?}")))?
        .ok_or_else(|| {
            ProtocolError::new(None, K::InvalidJson, "request line is not a JSON object")
        })?;
    let id = fields
        .id
        .ok_or_else(|| ProtocolError::new(None, K::InvalidRequest, "missing numeric 'id'"))?;
    let in_request = |(k, r)| ProtocolError::new(Some(id), k, r);
    let ty = fields
        .ty
        .ok_or_else(|| ProtocolError::new(Some(id), K::InvalidRequest, "missing string 'type'"))?;
    let req = match &*ty {
        "infer" => Request::Infer {
            demands: fields
                .demands
                .unwrap_or_else(|| Err((K::InvalidRequest, NEEDS_DEMANDS.to_string())))
                .map_err(in_request)?,
            deadline_ms: pin(fields.deadline_ms, "deadline_ms").map_err(in_request)?,
            epoch: pin(fields.epoch, "epoch").map_err(in_request)?,
        },
        "topology_update" => Request::TopologyUpdate {
            fail_links: fields
                .fail_links
                .unwrap_or(Ok(Vec::new()))
                .map_err(in_request)?,
            restore_links: fields
                .restore_links
                .unwrap_or(Ok(Vec::new()))
                .map_err(in_request)?,
        },
        "reload_checkpoint" => Request::ReloadCheckpoint {
            path: fields
                .path
                .ok_or_else(|| {
                    ProtocolError::new(
                        Some(id),
                        K::InvalidRequest,
                        "reload_checkpoint needs 'path'",
                    )
                })?
                .into_owned(),
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(ProtocolError::new(
                Some(id),
                K::InvalidRequest,
                format!("unknown request type {other:?}"),
            ))
        }
    };
    Ok((id, req))
}

/// Why an `infer` without a well-formed `demands` member is rejected.
const NEEDS_DEMANDS: &str = "infer needs 'demands': [[src, dst, demand], ..]";

/// A field check that failed: the kind and reason the error reply carries.
type Checked<T> = Result<T, (ProtocolErrorKind, String)>;

/// The members of a request object a [`Request`] is built from, each
/// decoded as it went by: `None` is absent or of the wrong shape, except
/// for the pins and lists, where an outer `None` is absent and an inner
/// `None` or `Err` a present member of the wrong shape.
#[derive(Default)]
struct Fields<'a> {
    id: Option<u64>,
    ty: Option<Cow<'a, str>>,
    demands: Option<Checked<Vec<(usize, usize, f64)>>>,
    deadline_ms: Option<Option<u64>>,
    epoch: Option<Option<u64>>,
    fail_links: Option<Checked<Vec<(usize, usize)>>>,
    restore_links: Option<Checked<Vec<(usize, usize)>>>,
    path: Option<Cow<'a, str>>,
}

impl<'a> Fields<'a> {
    /// Decode `line`; `Ok(None)` if it is valid JSON but not an object.
    fn read(line: &'a str, limits: &WireLimits) -> Result<Option<Self>, serde_json::Error> {
        let mut lx = Lexer::new(line);
        let first = lx.next_token()?;
        if first != Token::StartObject {
            lx.skip(&first)?;
            lx.finish()?;
            return Ok(None);
        }
        let mut f = Fields::default();
        // The lexer yields a key or the closing `}` here.
        while let Token::Key(key) = lx.next_token()? {
            let tok = lx.next_token()?;
            match &*key {
                "id" => f.id = integer(&mut lx, tok)?,
                "type" => f.ty = string(&mut lx, tok)?,
                "path" => f.path = string(&mut lx, tok)?,
                "deadline_ms" => f.deadline_ms = Some(integer(&mut lx, tok)?),
                "epoch" => f.epoch = Some(integer(&mut lx, tok)?),
                "demands" => f.demands = Some(demands(&mut lx, tok, limits)?),
                "fail_links" => f.fail_links = Some(links(&mut lx, tok, "fail_links", limits)?),
                "restore_links" => {
                    f.restore_links = Some(links(&mut lx, tok, "restore_links", limits)?)
                }
                _ => lx.skip(&tok)?,
            }
        }
        lx.finish()?;
        Ok(Some(f))
    }
}

/// A string member's value, or `None` for any other value.
fn string<'a>(
    lx: &mut Lexer<'a>,
    tok: Token<'a>,
) -> Result<Option<Cow<'a, str>>, serde_json::Error> {
    match tok {
        Token::String(s) => Ok(Some(s)),
        other => lx.skip(&other).map(|()| None),
    }
}

/// An integer member's value (`id`, `epoch`, `deadline_ms`), exact: the
/// number literal must denote a non-negative integer below 2^64. `None`
/// for anything else.
fn integer<'a>(lx: &mut Lexer<'a>, tok: Token<'a>) -> Result<Option<u64>, serde_json::Error> {
    match tok {
        Token::Number(text, _) => Ok(exact_u64(text)),
        other => lx.skip(&other).map(|()| None),
    }
}

/// The exact value of a JSON number literal when it is an integer in
/// `u64` range: `7`, `7.0`, `0.7e1` and `-0` qualify; `7.5`, `-1` and
/// `1e20` do not. No `f64` is involved, so ids above 2^53 survive.
fn exact_u64(literal: &str) -> Option<u64> {
    let (negative, unsigned) = match literal.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, literal),
    };
    let (mantissa, exp) = match unsigned.split_once(['e', 'E']) {
        Some((m, e)) => (m, Some(e)),
        None => (unsigned, None),
    };
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let digits = || int.bytes().chain(frac.bytes());
    let significant = digits().skip_while(|&d| d == b'0').count();
    if significant == 0 {
        return Some(0);
    }
    if negative {
        return None;
    }
    let trailing_zeros = digits().rev().take_while(|&d| d == b'0').count();
    // An exponent beyond i64 puts a nonzero value far outside u64 or far
    // below 1 either way.
    let exp: i64 = exp.map_or(Some(0), |e| e.parse().ok())?;
    // value = (significant digits, trailing zeros dropped) × 10^scale; a
    // negative scale leaves a fraction.
    let scale = exp
        .checked_add(i64::try_from(trailing_zeros).ok()?)?
        .checked_sub(i64::try_from(frac.len()).ok()?)?;
    let scale = u32::try_from(scale).ok()?;
    let kept = significant - trailing_zeros;
    if kept.saturating_add(scale as usize) > 20 {
        return None;
    }
    let mut value: u64 = 0;
    for d in digits().skip_while(|&d| d == b'0').take(kept) {
        value = value.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
    }
    value.checked_mul(10u64.checked_pow(scale)?)
}

/// A pin (`epoch`, `deadline_ms`): absent is `None`; present, it must be a
/// non-negative integer.
fn pin(value: Option<Option<u64>>, key: &str) -> Checked<Option<u64>> {
    match value {
        None => Ok(None),
        Some(Some(x)) => Ok(Some(x)),
        Some(None) => Err((
            ProtocolErrorKind::InvalidRequest,
            format!("'{key}' must be a non-negative integer"),
        )),
    }
}

/// One item of a fixed-length wire tuple: a number, or the byte span of
/// any other value (rendered only if an error reply must quote it).
#[derive(Clone, Copy)]
enum Raw {
    Num(f64),
    Span(usize, usize),
}

impl Raw {
    /// The item as JSON text, as a `Value` tree would print it.
    fn show(self, text: &str) -> String {
        match self {
            Raw::Num(x) => Value::from(x).to_string(),
            Raw::Span(a, b) => serde_json::from_str::<Value>(&text[a..b])
                .map(|v| v.to_string())
                .unwrap_or_default(),
        }
    }
}

/// Read one element of a wire list (its first token `tok` already read):
/// its items if it is an array of exactly `N` values, else `None`. The
/// element is consumed either way.
fn tuple<'a, const N: usize>(
    lx: &mut Lexer<'a>,
    tok: Token<'a>,
) -> Result<Option<[Raw; N]>, serde_json::Error> {
    if tok != Token::StartArray {
        lx.skip(&tok)?;
        return Ok(None);
    }
    let mut items = [Raw::Num(0.0); N];
    let mut len = 0;
    loop {
        let item = lx.next_token()?;
        let raw = match item {
            Token::EndArray => break,
            Token::Number(_, x) => Raw::Num(x),
            other => {
                let start = lx.token_start();
                lx.skip(&other)?;
                Raw::Span(start, lx.offset())
            }
        };
        if let Some(slot) = items.get_mut(len) {
            *slot = raw;
        }
        len += 1;
    }
    Ok((len == N).then_some(items))
}

/// Read a wire list `[[..], ..]` of `N`-tuples, checking element `i` with
/// `check(i, items)`. The result is `TooLarge` past `max` elements, else
/// the first failed check, else every element; the rest of the list is
/// still read, so a later syntax error (the outer `Err`) wins.
fn list<'a, T, const N: usize>(
    lx: &mut Lexer<'a>,
    tok: Token<'a>,
    max: usize,
    too_large: impl FnOnce(usize) -> String,
    not_array: impl FnOnce() -> String,
    mut check: impl FnMut(usize, Option<[Raw; N]>) -> Checked<T>,
) -> Result<Checked<Vec<T>>, serde_json::Error> {
    use ProtocolErrorKind as K;
    if tok != Token::StartArray {
        lx.skip(&tok)?;
        return Ok(Err((K::InvalidRequest, not_array())));
    }
    let mut out = Vec::new();
    let mut failed = None;
    let mut len = 0;
    loop {
        let element = lx.next_token()?;
        if element == Token::EndArray {
            break;
        }
        let items = tuple::<N>(lx, element)?;
        if failed.is_none() && len < max {
            match check(len, items) {
                Ok(x) => out.push(x),
                Err(e) => failed = Some(e),
            }
        }
        len += 1;
    }
    Ok(if len > max {
        Err((K::TooLarge, too_large(len)))
    } else if let Some(e) = failed {
        Err(e)
    } else {
        Ok(out)
    })
}

#[allow(clippy::type_complexity)]
fn demands<'a>(
    lx: &mut Lexer<'a>,
    tok: Token<'a>,
    limits: &WireLimits,
) -> Result<Checked<Vec<(usize, usize, f64)>>, serde_json::Error> {
    use ProtocolErrorKind as K;
    let text = lx.text();
    list(
        lx,
        tok,
        limits.max_demands,
        |n| format!("demands has {n} triples, limit is {}", limits.max_demands),
        || NEEDS_DEMANDS.to_string(),
        |i, items| {
            let [src, dst, demand] = items.ok_or_else(|| {
                (
                    K::InvalidRequest,
                    format!("demands[{i}] is not a [src, dst, demand] triple"),
                )
            })?;
            let s = node_id(src, || format!("demands[{i}].src"), text, limits)?;
            let d = node_id(dst, || format!("demands[{i}].dst"), text, limits)?;
            let Raw::Num(demand) = demand else {
                return Err((
                    K::InvalidRequest,
                    format!("demands[{i}]: demand is not a number"),
                ));
            };
            if !demand.is_finite() || demand < 0.0 {
                return Err((
                    K::InvalidRequest,
                    format!("demands[{i}]: demand {demand} is not finite and >= 0"),
                ));
            }
            Ok((s, d, demand))
        },
    )
}

#[allow(clippy::type_complexity)]
fn links<'a>(
    lx: &mut Lexer<'a>,
    tok: Token<'a>,
    key: &str,
    limits: &WireLimits,
) -> Result<Checked<Vec<(usize, usize)>>, serde_json::Error> {
    let text = lx.text();
    list(
        lx,
        tok,
        limits.max_links,
        |n| format!("{key} has {n} pairs, limit is {}", limits.max_links),
        || format!("'{key}' must be an array of [u, v] pairs"),
        |i, items| {
            let [u, v] = items.ok_or_else(|| {
                (
                    ProtocolErrorKind::InvalidRequest,
                    format!("{key}[{i}] is not a [u, v] pair"),
                )
            })?;
            let u = node_id(u, || format!("{key}[{i}].u"), text, limits)?;
            let v = node_id(v, || format!("{key}[{i}].v"), text, limits)?;
            Ok((u, v))
        },
    )
}

/// Convert one wire integer to a validated node index. Rejects anything
/// that is not an exact non-negative integer below `max_node` — the cast
/// happens only after the bound check, so a hostile id can never become an
/// out-of-range index.
fn node_id(raw: Raw, what: impl Fn() -> String, text: &str, limits: &WireLimits) -> Checked<usize> {
    // as_u64 is None for negatives, fractions and values >= 2^64; a
    // non-number is "not a node id" too.
    let u = match raw {
        Raw::Num(x) => Value::from(x).as_u64(),
        Raw::Span(..) => None,
    };
    let Some(u) = u else {
        return Err((
            ProtocolErrorKind::NodeOutOfRange,
            format!(
                "{}: {} is not a non-negative integer node id",
                what(),
                raw.show(text)
            ),
        ));
    };
    match usize::try_from(u) {
        Ok(idx) if idx < limits.max_node => Ok(idx),
        _ => Err((
            ProtocolErrorKind::NodeOutOfRange,
            format!(
                "{}: node id {u} is out of range (topology has {} nodes)",
                what(),
                limits.max_node
            ),
        )),
    }
}

/// One reply line's JSON object, written key by key into one buffer.
/// Callers add keys in sorted order — the order a `Value` tree prints in —
/// so a reply reads the same whichever path wrote it.
struct Line {
    out: String,
}

impl Line {
    fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push('{');
        Line { out }
    }

    /// Start member `key`; the caller writes its value into the buffer.
    fn key(&mut self, key: &str) -> &mut String {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        serde_json::write_str(&mut self.out, key);
        self.out.push(':');
        &mut self.out
    }

    fn id(&mut self, id: Option<u64>) {
        let out = self.key("id");
        match id {
            Some(id) => serde_json::write_u64(out, id),
            None => out.push_str("null"),
        }
    }

    fn bool(&mut self, key: &str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, s: &str) {
        serde_json::write_str(self.key(key), s);
    }

    fn u64(&mut self, key: &str, x: u64) {
        serde_json::write_u64(self.key(key), x);
    }

    fn splits(&mut self, splits: &[f64]) {
        let out = self.key("splits");
        out.push('[');
        for (i, &x) in splits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde_json::write_f64(out, x);
        }
        out.push(']');
    }

    fn finish(mut self) -> String {
        self.out.push_str("}\n");
        self.out
    }
}

/// Bytes to reserve for an infer reply: the fixed members plus a generous
/// 24 bytes a split (`0.` and 17 digits and a comma is 20).
fn infer_capacity(splits: &[f64]) -> usize {
    160 + 24 * splits.len()
}

/// Render a served `infer` reply straight into one presized buffer. The
/// text is what [`ok_response`] prints for the same members.
pub fn infer_response(
    id: u64,
    epoch: u64,
    generation: u64,
    latency_us: u64,
    mlu: f64,
    splits: &[f64],
) -> String {
    let mut line = Line::with_capacity(infer_capacity(splits));
    line.bool("degraded", false);
    line.u64("epoch", epoch);
    line.u64("generation", generation);
    line.id(Some(id));
    line.u64("latency_us", latency_us);
    serde_json::write_f64(line.key("mlu"), mlu);
    line.bool("ok", true);
    line.splits(splits);
    line.finish()
}

/// Render a degraded `infer` reply (fallback splits, with the reason and
/// where the splits came from) the same way.
pub fn degraded_response(
    id: u64,
    epoch: u64,
    latency_us: u64,
    reason: &str,
    splits: &[f64],
    splits_source: &str,
) -> String {
    let mut line = Line::with_capacity(infer_capacity(splits));
    line.bool("degraded", true);
    line.u64("epoch", epoch);
    line.id(Some(id));
    line.u64("latency_us", latency_us);
    line.bool("ok", true);
    line.str("reason", reason);
    line.splits(splits);
    line.str("splits_source", splits_source);
    line.finish()
}

/// Render a success response: `{"id":.., "ok":true, ..payload}`, keys in
/// sorted order.
pub fn ok_response(id: u64, payload: Value) -> String {
    let mut map = match payload {
        Value::Object(m) => m,
        _ => serde_json::Map::new(),
    };
    map.remove("id");
    map.insert("ok".to_string(), Value::Bool(true));
    let mut line = Line::with_capacity(64);
    let mut id_pending = true;
    for (k, v) in &map {
        // `ok` sorts after `id`, so the id is always written.
        if id_pending && k.as_str() > "id" {
            line.id(Some(id));
            id_pending = false;
        }
        serde_json::write_value(line.key(k), v);
    }
    line.finish()
}

/// Render an error response: `{"id":.., "ok":false, "error":..}`. A `None`
/// id (unparseable request) serializes as JSON `null`.
pub fn error_response(id: Option<u64>, error: &str) -> String {
    let mut line = Line::with_capacity(64 + error.len());
    line.str("error", error);
    line.id(id);
    line.bool("ok", false);
    line.finish()
}

/// Render a typed error response carrying `error_kind` (see
/// [`ProtocolErrorKind::code`]; also used for shed responses).
pub fn error_response_kind(id: Option<u64>, kind: ProtocolErrorKind, error: &str) -> String {
    typed_error(id, kind.code(), error, false)
}

/// Render a shed (admission-control) error response with a
/// `shed`-prefixed `error_kind` so clients can distinguish overload from
/// protocol mistakes.
pub fn shed_response(id: Option<u64>, reason_code: &str, error: &str) -> String {
    typed_error(id, reason_code, error, true)
}

fn typed_error(id: Option<u64>, kind: &str, error: &str, shed: bool) -> String {
    let mut line = Line::with_capacity(96 + error.len());
    line.str("error", error);
    line.str("error_kind", kind);
    line.id(id);
    line.bool("ok", false);
    if shed {
        line.bool("shed", true);
    }
    line.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_infer() {
        let (id, req) = parse_request(
            r#"{"id": 7, "type": "infer", "demands": [[0, 2, 4.5], [2, 0, 1]], "deadline_ms": 50}"#,
        )
        .unwrap();
        assert_eq!(id, 7);
        assert_eq!(
            req,
            Request::Infer {
                demands: vec![(0, 2, 4.5), (2, 0, 1.0)],
                deadline_ms: Some(50),
                epoch: None,
            }
        );
    }

    #[test]
    fn parses_topology_update_with_defaults() {
        let (_, req) =
            parse_request(r#"{"id": 1, "type": "topology_update", "fail_links": [[0, 1]]}"#)
                .unwrap();
        assert_eq!(
            req,
            Request::TopologyUpdate {
                fail_links: vec![(0, 1)],
                restore_links: vec![],
            }
        );
    }

    #[test]
    fn parses_control_requests() {
        assert_eq!(
            parse_request(r#"{"id": 2, "type": "stats"}"#).unwrap().1,
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"id": 3, "type": "shutdown"}"#).unwrap().1,
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"id": 4, "type": "reload_checkpoint", "path": "m.json"}"#)
                .unwrap()
                .1,
            Request::ReloadCheckpoint {
                path: "m.json".into()
            }
        );
    }

    #[test]
    fn rejects_malformed_requests_keeping_id() {
        let e = parse_request(r#"{"id": 9, "type": "warp"}"#).unwrap_err();
        assert_eq!(e.id, Some(9));
        assert_eq!(e.kind, ProtocolErrorKind::InvalidRequest);
        assert!(e.reason.contains("warp"));

        let e = parse_request(r#"{"type": "stats"}"#).unwrap_err();
        assert_eq!(e.id, None);

        let e = parse_request("not json").unwrap_err();
        assert_eq!(e.id, None);
        assert_eq!(e.kind, ProtocolErrorKind::InvalidJson);

        let e =
            parse_request(r#"{"id": 5, "type": "infer", "demands": [[0, 1, -3]]}"#).unwrap_err();
        assert_eq!(e.id, Some(5));
        assert!(e.reason.contains("finite"));
    }

    #[test]
    fn node_ids_are_bounds_checked_before_any_cast() {
        let limits = WireLimits::for_nodes(4);

        // in-range ids parse
        let (_, req) = parse_request_bounded(
            r#"{"id": 1, "type": "infer", "demands": [[0, 3, 1.0]]}"#,
            &limits,
        )
        .unwrap();
        assert!(matches!(req, Request::Infer { .. }));

        // id == node count is out of range (0-based ids)
        let e = parse_request_bounded(
            r#"{"id": 2, "type": "infer", "demands": [[0, 4, 1.0]]}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(e.kind, ProtocolErrorKind::NodeOutOfRange);
        assert_eq!(e.id, Some(2));
        assert!(e.reason.contains("4 nodes"), "{}", e.reason);

        // a huge wire integer is rejected, never truncated into an index
        let e = parse_request_bounded(
            r#"{"id": 3, "type": "infer", "demands": [[18446744073709551615, 0, 1.0]]}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(e.kind, ProtocolErrorKind::NodeOutOfRange);

        // negative ids are NodeOutOfRange, not a generic schema error
        let e = parse_request_bounded(
            r#"{"id": 4, "type": "infer", "demands": [[-1, 0, 1.0]]}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(e.kind, ProtocolErrorKind::NodeOutOfRange);

        // link pairs get the same treatment
        let e = parse_request_bounded(
            r#"{"id": 5, "type": "topology_update", "fail_links": [[0, 99]]}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(e.kind, ProtocolErrorKind::NodeOutOfRange);
    }

    #[test]
    fn oversized_arrays_are_rejected_as_too_large() {
        let limits = WireLimits {
            max_node: 4,
            max_demands: 2,
            max_links: 2,
        };
        let e = parse_request_bounded(
            r#"{"id": 1, "type": "infer", "demands": [[0,1,1],[1,2,1],[2,3,1]]}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(e.kind, ProtocolErrorKind::TooLarge);

        let e = parse_request_bounded(
            r#"{"id": 2, "type": "topology_update", "restore_links": [[0,1],[1,2],[2,3]]}"#,
            &limits,
        )
        .unwrap_err();
        assert_eq!(e.kind, ProtocolErrorKind::TooLarge);
    }

    #[test]
    fn typed_errors_render_error_kind_on_the_wire() {
        let e = parse_request_bounded(
            r#"{"id": 8, "type": "infer", "demands": [[7, 0, 1.0]]}"#,
            &WireLimits::for_nodes(2),
        )
        .unwrap_err();
        let line = e.to_response();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error_kind").and_then(Value::as_str),
            Some("node_out_of_range")
        );
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(8));
    }

    #[test]
    fn responses_are_single_lines() {
        let ok = ok_response(3, serde_json::json!({"epoch": 1}));
        assert!(ok.ends_with('\n'));
        assert_eq!(ok.matches('\n').count(), 1);
        let v: Value = serde_json::from_str(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(1));

        let err = error_response(None, "bad");
        let v: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v.get("id").unwrap().is_null());
    }

    #[test]
    fn shed_responses_are_marked() {
        let line = shed_response(Some(4), "shed_overload", "queue full");
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("shed").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("error_kind").and_then(Value::as_str),
            Some("shed_overload")
        );
    }
}
