//! Parameter and training-state (de)serialization.
//!
//! Two on-disk artifacts:
//!
//! * **parameter checkpoints** ([`save_params`]/[`load_params`]) — a JSON
//!   name→(shape, data) map of the model weights only; what the serving
//!   layer hot-reloads and experiment results ship with.
//! * **training snapshots** ([`save_snapshot`]/[`load_snapshot`]) — a
//!   versioned superset adding optimizer moments, RNG state, and
//!   early-stop bookkeeping, so an interrupted `train_model` run resumes
//!   **bitwise-identically** (see DESIGN.md §10). Every float survives the
//!   JSON round-trip exactly: `f32`/`f64` print in Rust's shortest-exact
//!   form, and full-range `u64` RNG words are hex strings (JSON numbers
//!   are f64-backed and would silently lose bits past 2^53).
//!
//! Both writers are **crash-safe** (unique temp file + `rename` in the
//! target directory) and **sealed**: the JSON is followed by a one-line
//! trailer holding its 64-bit FNV-1a hash ([`seal`]), which both loaders
//! check before parsing, so a flipped or lost byte anywhere in the file is
//! an [`io::ErrorKind::InvalidData`] error rather than a silently different
//! value (a `-` turned into `\r`, JSON whitespace, parses fine). Both
//! loaders then validate the entire artifact against the live model before
//! mutating anything, failing with errors that name the offending field.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use harp_chaos::FaultPlan;
use harp_tensor::ParamStore;
use serde_json::{FromJson, ToJson, Value};

use crate::adam::AdamState;

struct SavedParam {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl ToJson for SavedParam {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "shape": self.shape.to_json(),
            "data": self.data.to_json(),
        })
    }
}

impl FromJson for SavedParam {
    fn from_json(v: &Value) -> Option<Self> {
        Some(SavedParam {
            shape: Vec::from_json(v.get("shape")?)?,
            data: Vec::from_json(v.get("data")?)?,
        })
    }
}

/// Monotonic discriminator for temp-file names, so concurrent saves in one
/// process never collide on the same scratch path.
static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Write `bytes` to `path` atomically: a uniquely-named temp file in the
/// same directory (rename(2) is only atomic within one filesystem) is
/// written first and then `rename`d into place. A process killed mid-save
/// can leave a stray `*.tmp-*` behind, but `path` itself only ever holds
/// either the previous complete artifact or the new complete one.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("checkpoint path {} has no file name", path.display()),
        )
    })?;
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp_path = path.with_file_name(tmp_name);

    fs::write(&tmp_path, bytes)?;
    fs::rename(&tmp_path, path).inspect_err(|_| {
        // rename failed: don't leave the scratch file around
        let _ = fs::remove_file(&tmp_path);
    })
}

/// What ends every checkpoint file, after the JSON: a newline, this tag,
/// the FNV-1a hash of the JSON bytes as 16 lowercase hex digits and a
/// newline.
const CHECKSUM_TAG: &str = "\nfnv1a64 ";
const TRAILER_LEN: usize = CHECKSUM_TAG.len() + 16 + 1;

/// 64-bit FNV-1a. Each step XORs one byte in and multiplies by an odd
/// constant, a bijection of the state, so any single changed byte changes
/// the hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `json` followed by its checksum trailer: the bytes a checkpoint file
/// holds.
fn seal(json: String) -> Vec<u8> {
    let sum = fnv1a64(json.as_bytes());
    let mut bytes = json.into_bytes();
    bytes.extend_from_slice(format!("{CHECKSUM_TAG}{sum:016x}\n").as_bytes());
    bytes
}

/// The JSON text of a file [`seal`] wrote, or why the file is not one:
/// no well-formed trailer (truncated, or a flip inside the trailer — hex
/// digits must be lowercase, so a case flip is caught too), or a hash that
/// does not match the bytes before it.
fn unseal(bytes: &[u8]) -> Result<&str, String> {
    let cut = bytes
        .len()
        .checked_sub(TRAILER_LEN)
        .ok_or("file is shorter than its checksum trailer")?;
    let (json, trailer) = bytes.split_at(cut);
    let digits = trailer
        .strip_prefix(CHECKSUM_TAG.as_bytes())
        .and_then(|t| t.strip_suffix(b"\n"))
        .filter(|d| d.iter().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')))
        .ok_or("no well-formed checksum trailer")?;
    let want = digits.iter().fold(0u64, |acc, &c| {
        let v = if c.is_ascii_digit() {
            c - b'0'
        } else {
            c - b'a' + 10
        };
        (acc << 4) | u64::from(v)
    });
    let got = fnv1a64(json);
    if got != want {
        return Err(format!(
            "checksum mismatch: trailer says {want:016x}, content hashes to {got:016x}"
        ));
    }
    std::str::from_utf8(json).map_err(|_| "content is not UTF-8".to_string())
}

fn params_to_json(store: &ParamStore) -> Result<Value, io::Error> {
    let mut map = BTreeMap::new();
    for id in store.ids() {
        map.insert(
            store.name(id).to_string(),
            SavedParam {
                shape: store.shape(id).0.clone(),
                data: store.data(id).to_vec(),
            },
        );
    }
    Ok(map.to_json())
}

/// Write every parameter in `store` to `path` as sealed JSON ([`seal`]),
/// crash-safely (see [`atomic_write`]): a hot-reloading server can never
/// observe a truncated checkpoint, and [`load_params`] rejects a damaged
/// one.
pub fn save_params(store: &ParamStore, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string(&params_to_json(store)?).map_err(io::Error::other)?;
    atomic_write(path, &seal(json))
}

/// Validate a parsed name→[`SavedParam`] map against the store's
/// registered layout: every registered parameter present with the right
/// shape, and nothing extra. Errors name every offending parameter.
fn validate_params(
    store: &ParamStore,
    map: &BTreeMap<String, SavedParam>,
    path: &Path,
) -> io::Result<()> {
    let ids: Vec<_> = store.ids().collect();
    for &id in &ids {
        let name = store.name(id);
        let saved = map.get(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint missing parameter '{name}'"),
            )
        })?;
        if saved.shape != store.shape(id).0 || saved.data.len() != store.data(id).len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint shape mismatch for '{name}': checkpoint {:?} ({} values) vs model {:?} ({} values)",
                    saved.shape,
                    saved.data.len(),
                    store.shape(id).0,
                    store.data(id).len()
                ),
            ));
        }
    }
    let known: std::collections::BTreeSet<&str> = ids.iter().map(|&id| store.name(id)).collect();
    let unexpected: Vec<&str> = map
        .keys()
        .map(String::as_str)
        .filter(|k| !known.contains(k))
        .collect();
    if !unexpected.is_empty() {
        harp_obs::event("checkpoint.unexpected_params")
            .field("path", path.display().to_string())
            .field("count", unexpected.len())
            .field_with("names", || unexpected.join(", ").into())
            .emit();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint contains {} parameter(s) not registered in the model \
                 (architecture mismatch?): {}",
                unexpected.len(),
                unexpected.join(", ")
            ),
        ));
    }
    Ok(())
}

/// Copy validated parameter values into the store. Call only after
/// [`validate_params`] passed.
fn apply_params(store: &mut ParamStore, map: &BTreeMap<String, SavedParam>) {
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        let name = store.name(id).to_string();
        let saved = map
            .get(name.as_str())
            .expect("validated above: every registered parameter is present");
        store.data_mut(id).copy_from_slice(&saved.data);
    }
}

/// Load parameter values saved with [`save_params`] into a store whose
/// registered names/shapes must match exactly (the model must be
/// constructed with the same architecture and names first).
///
/// Rejects with [`io::ErrorKind::InvalidData`] when the file fails its
/// checksum, when the checkpoint is missing a registered parameter,
/// disagrees on a shape, **or contains parameters the store does not
/// register** — a checkpoint from a different architecture must fail
/// loudly instead of half-succeeding. The error message names every
/// offending parameter. The store is not modified unless validation of the
/// whole checkpoint passes.
pub fn load_params(store: &mut ParamStore, path: &Path) -> io::Result<()> {
    let bytes = fs::read(path)?;
    let json = unseal(&bytes).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "parameter file {} failed its integrity check: {why}",
                path.display()
            ),
        )
    })?;
    let map: BTreeMap<String, SavedParam> = serde_json::from_str(json).map_err(io::Error::other)?;
    validate_params(store, &map, path)?;
    apply_params(store, &map);
    Ok(())
}

// ---------------------------------------------------------------------------
// Full training snapshots
// ---------------------------------------------------------------------------

/// Version tag of the on-disk training-snapshot format. Bumped on any
/// incompatible layout change; [`load_snapshot`] rejects other versions by
/// name rather than guessing. Version 2 added the checksum trailer.
pub const SNAPSHOT_FORMAT_VERSION: u64 = 2;

/// One epoch's statistics as persisted in a snapshot (a dependency-free
/// mirror of `harp_core::EpochStats`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotEpoch {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean (normalized) training loss.
    pub train_loss: f64,
    /// Mean validation NormMLU.
    pub val_norm_mlu: f64,
}

/// Everything `train_model` needs to resume bitwise-identically, minus the
/// current parameter values (those live in the [`ParamStore`] the snapshot
/// is saved from / loaded into).
#[derive(Clone, Debug)]
pub struct TrainSnapshot {
    /// Optimizer moments, step count, and current learning rate.
    pub adam: AdamState,
    /// Shuffling-RNG state at the epoch boundary.
    pub rng_state: [u64; 4],
    /// First epoch the resumed run should execute.
    pub next_epoch: usize,
    /// Best validation epoch so far.
    pub best_epoch: usize,
    /// Best validation NormMLU so far.
    pub best_val: f64,
    /// Epochs since the best (early-stop bookkeeping).
    pub since_best: usize,
    /// Divergence rollbacks consumed so far (bounded-retry bookkeeping).
    pub rollbacks: usize,
    /// Parameter values of the best epoch, in store order.
    pub best_params: Vec<Vec<f32>>,
    /// Per-epoch statistics up to `next_epoch`.
    pub history: Vec<SnapshotEpoch>,
}

/// `u64` ⇄ JSON via lossless hex strings (JSON numbers are f64-backed and
/// lose bits past 2^53 — RNG words use the full range).
fn u64_to_hex(v: u64) -> Value {
    Value::from(format!("{v:#018x}"))
}

fn hex_to_u64(v: &Value, field: &str) -> io::Result<u64> {
    let s = v.as_str().ok_or_else(|| bad_field(field, "not a string"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| bad_field(field, "missing 0x prefix"))?;
    u64::from_str_radix(digits, 16).map_err(|_| bad_field(field, "not a hex u64"))
}

/// `f64` ⇄ JSON via bit-pattern hex strings: exact for every value
/// including ±inf (`best_val` starts at +inf before the first validation
/// pass) and NaN, which plain JSON numbers cannot carry.
fn f64_bits_to_hex(v: f64) -> Value {
    u64_to_hex(v.to_bits())
}

fn hex_to_f64(v: &Value, field: &str) -> io::Result<f64> {
    Ok(f64::from_bits(hex_to_u64(v, field)?))
}

fn bad_field(field: &str, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("training snapshot field '{field}': {why}"),
    )
}

fn get<'v>(v: &'v Value, field: &str) -> io::Result<&'v Value> {
    v.get(field).ok_or_else(|| bad_field(field, "missing"))
}

fn get_u64(v: &Value, field: &str) -> io::Result<u64> {
    get(v, field)?
        .as_u64()
        .ok_or_else(|| bad_field(field, "not a non-negative integer"))
}

fn get_f64(v: &Value, field: &str) -> io::Result<f64> {
    get(v, field)?
        .as_f64()
        .ok_or_else(|| bad_field(field, "not a number"))
}

fn moments_to_json(bufs: &[Vec<f32>]) -> Value {
    Value::from(bufs.iter().map(|b| b.to_json()).collect::<Vec<Value>>())
}

fn moments_from_json(v: &Value, field: &str) -> io::Result<Vec<Vec<f32>>> {
    let arr = v
        .as_array()
        .ok_or_else(|| bad_field(field, "not an array"))?;
    arr.iter()
        .enumerate()
        .map(|(i, b)| {
            Vec::<f32>::from_json(b)
                .ok_or_else(|| bad_field(&format!("{field}[{i}]"), "not a float array"))
        })
        .collect()
}

/// Serialize a full training snapshot (current params from `store` plus
/// `snap`'s optimizer/RNG/bookkeeping state) to `path`, crash-safely.
///
/// `chaos` is the fault-injection plan consulted for `corrupt-checkpoint`
/// faults (pass the training run's plan; `None` injects nothing). An
/// injected corruption mangles the byte stream *after* serialization —
/// exactly what disk bit rot or a torn write would do — and is surfaced on
/// the next [`load_snapshot`], which must reject the damaged file loudly.
pub fn save_snapshot(
    store: &ParamStore,
    snap: &TrainSnapshot,
    path: &Path,
    chaos: Option<&FaultPlan>,
) -> io::Result<()> {
    let json = serde_json::json!({
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "params": params_to_json(store)?,
        "optimizer": serde_json::json!({
            "t": u64_to_hex(snap.adam.t),
            "lr": f64::from(snap.adam.lr),
            "m": moments_to_json(&snap.adam.m),
            "v": moments_to_json(&snap.adam.v),
        }),
        "rng": Value::from(snap.rng_state.iter().map(|&w| u64_to_hex(w)).collect::<Vec<Value>>()),
        "progress": serde_json::json!({
            "next_epoch": snap.next_epoch,
            "best_epoch": snap.best_epoch,
            "best_val": f64_bits_to_hex(snap.best_val),
            "since_best": snap.since_best,
            "rollbacks": snap.rollbacks,
        }),
        "best_params": moments_to_json(&snap.best_params),
        "history": Value::from(snap.history.iter().map(|e| serde_json::json!({
            "epoch": e.epoch,
            "train_loss": f64_bits_to_hex(e.train_loss),
            "val_norm_mlu": f64_bits_to_hex(e.val_norm_mlu),
        })).collect::<Vec<Value>>()),
    });
    let mut bytes = seal(serde_json::to_string(&json).map_err(io::Error::other)?);
    if let Some(plan) = chaos {
        if let Some(mode) = plan.corrupt_checkpoint_write(&mut bytes) {
            harp_obs::event("checkpoint.chaos_corrupted")
                .field("path", path.display().to_string())
                .field("mode", format!("{mode:?}"))
                .emit();
        }
    }
    atomic_write(path, &bytes)
}

/// Top-level snapshot sections, for localizing parse damage. A truncated
/// file still contains every section key written before the cut, so the
/// key at the greatest byte offset names where the damage starts. The
/// `"params"` needle keeps its leading quote so it cannot false-match
/// inside `"best_params"`.
const SNAPSHOT_SECTIONS: [&str; 7] = [
    "\"format_version\"",
    "\"params\"",
    "\"optimizer\"",
    "\"rng\"",
    "\"progress\"",
    "\"best_params\"",
    "\"history\"",
];

/// Name the last top-level section whose key survives in `raw` — the one a
/// truncation or corruption most plausibly landed in. Purely a diagnostic
/// aid: it scans the raw text, so it works even when the JSON no longer
/// parses.
fn furthest_section(raw: &str) -> &'static str {
    let mut best: Option<(usize, &'static str)> = None;
    for needle in SNAPSHOT_SECTIONS {
        if let Some(pos) = raw.rfind(needle) {
            let name = needle.trim_matches('"');
            if best.is_none_or(|(p, _)| pos > p) {
                best = Some((pos, name));
            }
        }
    }
    match best {
        Some((_, name)) => name,
        None => "preamble (no section key survives)",
    }
}

/// Load a training snapshot saved with [`save_snapshot`], validating the
/// **whole** artifact — checksum, format version, parameter layout, optimizer-state
/// shape, RNG words, bookkeeping, best-params layout — against the live
/// `store` before mutating it. Every rejection is an
/// [`io::ErrorKind::InvalidData`] error naming the offending field; a
/// snapshot from a different architecture or format revision must fail
/// loudly, never half-load.
///
/// On success the store holds the snapshot's current parameters and the
/// returned [`TrainSnapshot`] carries everything else.
pub fn load_snapshot(store: &mut ParamStore, path: &Path) -> io::Result<TrainSnapshot> {
    let bytes = fs::read(path)?;
    let json = unseal(&bytes).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "training snapshot failed its integrity check (corrupt or truncated \
                 in section '{}'): {why}",
                furthest_section(&String::from_utf8_lossy(&bytes))
            ),
        )
    })?;
    let root: Value = serde_json::from_str(json).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "training snapshot is not valid JSON (corrupt or truncated in \
                 section '{}'): {e}",
                furthest_section(json)
            ),
        )
    })?;

    let version = get_u64(&root, "format_version")?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "training snapshot field 'format_version': snapshot has {version}, \
                 this build reads {SNAPSHOT_FORMAT_VERSION}"
            ),
        ));
    }

    let params: BTreeMap<String, SavedParam> = BTreeMap::from_json(get(&root, "params")?)
        .ok_or_else(|| bad_field("params", "not a name->param map"))?;
    validate_params(store, &params, path)?;

    let opt = get(&root, "optimizer")?;
    let adam = AdamState {
        t: hex_to_u64(get(opt, "t")?, "optimizer.t")?,
        lr: get_f64(opt, "lr")? as f32,
        m: moments_from_json(get(opt, "m")?, "optimizer.m")?,
        v: moments_from_json(get(opt, "v")?, "optimizer.v")?,
    };
    validate_store_layout(store, &adam.m, "optimizer.m")?;
    validate_store_layout(store, &adam.v, "optimizer.v")?;

    let rng_arr = get(&root, "rng")?
        .as_array()
        .ok_or_else(|| bad_field("rng", "not an array"))?;
    if rng_arr.len() != 4 {
        return Err(bad_field(
            "rng",
            &format!("expected 4 state words, found {}", rng_arr.len()),
        ));
    }
    let mut rng_state = [0u64; 4];
    for (i, w) in rng_arr.iter().enumerate() {
        rng_state[i] = hex_to_u64(w, &format!("rng[{i}]"))?;
    }

    let progress = get(&root, "progress")?;
    let best_params = moments_from_json(get(&root, "best_params")?, "best_params")?;
    validate_store_layout(store, &best_params, "best_params")?;

    let history_arr = get(&root, "history")?
        .as_array()
        .ok_or_else(|| bad_field("history", "not an array"))?;
    let mut history = Vec::with_capacity(history_arr.len());
    for (i, e) in history_arr.iter().enumerate() {
        let field = |key: &str| format!("history[{i}].{key}");
        let entry = |key: &str| -> io::Result<&Value> {
            e.get(key).ok_or_else(|| bad_field(&field(key), "missing"))
        };
        history.push(SnapshotEpoch {
            epoch: entry("epoch")?
                .as_u64()
                .ok_or_else(|| bad_field(&field("epoch"), "not a non-negative integer"))?
                as usize,
            train_loss: hex_to_f64(entry("train_loss")?, &field("train_loss"))?,
            val_norm_mlu: hex_to_f64(entry("val_norm_mlu")?, &field("val_norm_mlu"))?,
        });
    }

    let snap = TrainSnapshot {
        adam,
        rng_state,
        next_epoch: get_u64(progress, "next_epoch")? as usize,
        best_epoch: get_u64(progress, "best_epoch")? as usize,
        best_val: hex_to_f64(get(progress, "best_val")?, "progress.best_val")?,
        since_best: get_u64(progress, "since_best")? as usize,
        rollbacks: get_u64(progress, "rollbacks")? as usize,
        best_params,
        history,
    };
    // Everything validated: now (and only now) touch the store.
    apply_params(store, &params);
    Ok(snap)
}

/// Check that `bufs` is one buffer per store parameter with matching
/// lengths, naming the parameter on mismatch.
fn validate_store_layout(store: &ParamStore, bufs: &[Vec<f32>], field: &str) -> io::Result<()> {
    if bufs.len() != store.len() {
        return Err(bad_field(
            field,
            &format!(
                "snapshot has {} buffers, model registers {} parameters",
                bufs.len(),
                store.len()
            ),
        ));
    }
    for (id, buf) in store.ids().zip(bufs) {
        if buf.len() != store.data(id).len() {
            return Err(bad_field(
                &format!("{field}['{}']", store.name(id)),
                &format!(
                    "snapshot buffer has {} values, model parameter has {}",
                    buf.len(),
                    store.data(id).len()
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt_path(case: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("harp_nn_serialize_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{case}.json"))
    }

    #[test]
    fn roundtrip() {
        let path = ckpt_path("roundtrip");
        let mut store = ParamStore::new();
        let a = store.register("a", vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = store.register("b", vec![3], vec![5.0, 6.0, 7.0]);
        save_params(&store, &path).unwrap();

        store.data_mut(a).copy_from_slice(&[0.0; 4]);
        store.data_mut(b).copy_from_slice(&[0.0; 3]);
        load_params(&mut store, &path).unwrap();
        assert_eq!(store.data(a), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(store.data(b), &[5.0, 6.0, 7.0]);
    }

    #[test]
    fn partial_temp_file_never_shadows_valid_checkpoint() {
        let path = ckpt_path("crash_partial");
        let mut store = ParamStore::new();
        let a = store.register("a", vec![2], vec![1.5, -2.5]);
        save_params(&store, &path).unwrap();

        // Simulate a crash mid-save: a truncated temp file next to the
        // checkpoint (what fs::write would have left at the old path).
        let stray = path.with_file_name("crash_partial.json.tmp-dead-0");
        fs::write(&stray, "{\"a\":{\"shape\":[2],\"da").unwrap();

        // The real checkpoint is untouched and still loads.
        store.data_mut(a).copy_from_slice(&[0.0, 0.0]);
        load_params(&mut store, &path).unwrap();
        assert_eq!(store.data(a), &[1.5, -2.5]);

        // A subsequent save still lands atomically despite the stray file.
        store.data_mut(a).copy_from_slice(&[3.0, 4.0]);
        save_params(&store, &path).unwrap();
        let mut fresh = ParamStore::new();
        let b = fresh.register("a", vec![2], vec![0.0, 0.0]);
        load_params(&mut fresh, &path).unwrap();
        assert_eq!(fresh.data(b), &[3.0, 4.0]);
        let _ = fs::remove_file(stray);
    }

    /// Kill-mid-save proxy: a writer thread overwrites the checkpoint in a
    /// tight loop while a reader loads it concurrently. Because saves are
    /// temp-file + rename, every load must observe a complete checkpoint —
    /// one of the writer's values, never a parse/validation error from a
    /// half-written file (which pre-atomic `fs::write` produced readily).
    #[test]
    fn concurrent_loads_never_see_truncated_checkpoints() {
        let path = ckpt_path("crash_concurrent");
        // Large enough that a non-atomic overwrite would take multiple
        // writes and expose torn reads.
        let n = 4096usize;
        let mut store = ParamStore::new();
        let id = store.register("w", vec![n], vec![0.0; n]);
        save_params(&store, &path).unwrap();

        std::thread::scope(|s| {
            let writer_path = path.clone();
            let writer = s.spawn(move || {
                let mut st = ParamStore::new();
                let wid = st.register("w", vec![n], vec![0.0; n]);
                for round in 1..=20u32 {
                    st.data_mut(wid).fill(round as f32);
                    save_params(&st, &writer_path).unwrap();
                }
            });
            let reader_path = path.clone();
            let reader = s.spawn(move || {
                for _ in 0..40 {
                    let mut st = ParamStore::new();
                    let rid = st.register("w", vec![n], vec![-1.0; n]);
                    load_params(&mut st, &reader_path)
                        .expect("load observed a truncated or torn checkpoint");
                    let first = st.data(rid)[0];
                    // a complete checkpoint is uniform in one round's value
                    assert!(
                        st.data(rid).iter().all(|&v| v == first),
                        "torn checkpoint: mixed values in one load"
                    );
                }
            });
            writer.join().unwrap();
            reader.join().unwrap();
        });

        // final state is the last round
        let mut fin = ParamStore::new();
        let fid = fin.register("w", vec![n], vec![0.0; n]);
        load_params(&mut fin, &path).unwrap();
        assert_eq!(fin.data(fid)[0], 20.0);
        let _ = id;
    }

    #[test]
    fn missing_param_is_error_naming_it() {
        let path = ckpt_path("missing");
        let mut small = ParamStore::new();
        let _ = small.register("a", vec![1], vec![1.0]);
        save_params(&small, &path).unwrap();

        let mut bigger = ParamStore::new();
        let _ = bigger.register("a", vec![1], vec![0.0]);
        let _ = bigger.register("layer2.weight", vec![1], vec![0.0]);
        let err = load_params(&mut bigger, &path).expect_err("missing param must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("layer2.weight"),
            "error must name the missing parameter: {err}"
        );
    }

    #[test]
    fn shape_mismatch_is_error_naming_it() {
        let path = ckpt_path("shape_mismatch");
        let mut saved = ParamStore::new();
        let _ = saved.register("enc.weight", vec![2, 3], vec![0.0; 6]);
        save_params(&saved, &path).unwrap();

        let mut other = ParamStore::new();
        let _ = other.register("enc.weight", vec![3, 2], vec![1.0; 6]);
        let err = load_params(&mut other, &path).expect_err("shape mismatch must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("enc.weight"),
            "error must name the mismatched parameter: {msg}"
        );
        assert!(
            msg.contains("[2, 3]") && msg.contains("[3, 2]"),
            "error must show both shapes: {msg}"
        );
        // validation failed before any write: the store is untouched
        let id = other.ids().next().unwrap();
        assert_eq!(other.data(id), &[1.0; 6]);
    }

    #[test]
    fn extra_params_are_rejected_naming_them() {
        let path = ckpt_path("extra");
        let mut bigger = ParamStore::new();
        let _ = bigger.register("shared", vec![1], vec![2.0]);
        let _ = bigger.register("rau.w0", vec![2], vec![1.0, 1.0]);
        let _ = bigger.register("rau.w1", vec![2], vec![1.0, 1.0]);
        save_params(&bigger, &path).unwrap();

        let mut smaller = ParamStore::new();
        let shared = smaller.register("shared", vec![1], vec![9.0]);
        let err = load_params(&mut smaller, &path)
            .expect_err("checkpoint with unknown parameters must fail, not half-load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("rau.w0") && msg.contains("rau.w1"),
            "error must name every unexpected parameter: {msg}"
        );
        // the rejected load must not have overwritten anything
        assert_eq!(smaller.data(shared), &[9.0]);
    }

    // -- full training snapshots --------------------------------------------

    /// A small store plus a snapshot with awkward values: non-round floats,
    /// full-range RNG words, infinite best_val.
    fn sample_snapshot() -> (ParamStore, TrainSnapshot) {
        let mut store = ParamStore::new();
        let _ = store.register("w", vec![2], vec![0.1, -1.0e-7]);
        let _ = store.register("b", vec![1], vec![3.0]);
        let snap = TrainSnapshot {
            adam: AdamState {
                m: vec![vec![0.25, f32::MIN_POSITIVE], vec![-0.125]],
                v: vec![vec![1.0e-12, 2.5], vec![0.75]],
                t: 37,
                lr: 2.0e-3,
            },
            rng_state: [u64::MAX, 1, 0x9E37_79B9_7F4A_7C15, 42],
            next_epoch: 5,
            best_epoch: 3,
            best_val: f64::INFINITY,
            since_best: 2,
            rollbacks: 1,
            best_params: vec![vec![0.5, 0.25], vec![-3.5]],
            history: vec![
                SnapshotEpoch {
                    epoch: 0,
                    train_loss: 1.0 / 3.0, // non-terminating in binary
                    val_norm_mlu: 1.05,
                },
                SnapshotEpoch {
                    epoch: 1,
                    train_loss: 0.1 + 0.2, // famously unrepresentable exactly
                    val_norm_mlu: 1.0,
                },
            ],
        };
        (store, snap)
    }

    #[test]
    fn snapshot_roundtrips_bitwise() {
        let path = ckpt_path("snapshot_roundtrip");
        let (store, snap) = sample_snapshot();
        save_snapshot(&store, &snap, &path, None).unwrap();

        let mut fresh = ParamStore::new();
        let w = fresh.register("w", vec![2], vec![0.0; 2]);
        let b = fresh.register("b", vec![1], vec![0.0]);
        let loaded = load_snapshot(&mut fresh, &path).unwrap();

        // params land in the store, bitwise
        assert_eq!(fresh.data(w)[0].to_bits(), 0.1f32.to_bits());
        assert_eq!(fresh.data(w)[1].to_bits(), (-1.0e-7f32).to_bits());
        assert_eq!(fresh.data(b)[0], 3.0);
        // optimizer state, bitwise
        assert_eq!(loaded.adam.t, 37);
        assert_eq!(loaded.adam.lr.to_bits(), 2.0e-3f32.to_bits());
        for (a, b) in loaded
            .adam
            .m
            .iter()
            .flatten()
            .zip(snap.adam.m.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in loaded
            .adam
            .v
            .iter()
            .flatten()
            .zip(snap.adam.v.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // RNG words, exact (full u64 range)
        assert_eq!(loaded.rng_state, snap.rng_state);
        // bookkeeping
        assert_eq!(loaded.next_epoch, 5);
        assert_eq!(loaded.best_epoch, 3);
        assert!(loaded.best_val.is_infinite() && loaded.best_val > 0.0);
        assert_eq!(loaded.since_best, 2);
        assert_eq!(loaded.rollbacks, 1);
        assert_eq!(loaded.best_params, snap.best_params);
        // history, bitwise
        assert_eq!(loaded.history.len(), 2);
        for (a, b) in loaded.history.iter().zip(&snap.history) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.val_norm_mlu.to_bits(), b.val_norm_mlu.to_bits());
        }
    }

    /// Rewrite the sealed file at `path` with `edit` applied to its JSON,
    /// sealed again: a well-formed file that says something else.
    fn reseal(path: &Path, edit: impl FnOnce(&str) -> String) {
        let bytes = fs::read(path).unwrap();
        let json = edit(unseal(&bytes).unwrap());
        fs::write(path, seal(json)).unwrap();
    }

    #[test]
    fn snapshot_rejects_wrong_format_version() {
        let path = ckpt_path("snapshot_version");
        let (store, snap) = sample_snapshot();
        save_snapshot(&store, &snap, &path, None).unwrap();
        reseal(&path, |json| {
            let current = format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}");
            assert!(json.contains(&current));
            json.replace(&current, "\"format_version\":99")
        });

        let (mut store2, _) = sample_snapshot();
        let err = load_snapshot(&mut store2, &path).expect_err("version 99 must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("format_version") && msg.contains("99"),
            "error must name the field and version: {msg}"
        );
    }

    #[test]
    fn snapshot_rejects_optimizer_shape_mismatch_naming_param() {
        let path = ckpt_path("snapshot_opt_shape");
        let (store, mut snap) = sample_snapshot();
        snap.adam.v[1] = vec![0.0; 4]; // wrong width for param "b"
        save_snapshot(&store, &snap, &path, None).unwrap();

        let (mut store2, _) = sample_snapshot();
        let before = store2.data(store2.ids().next().unwrap()).to_vec();
        let err = load_snapshot(&mut store2, &path).expect_err("bad moment shape must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("optimizer.v") && msg.contains("'b'"),
            "error must name the buffer and parameter: {msg}"
        );
        // validation failed before any mutation
        assert_eq!(store2.data(store2.ids().next().unwrap()), &before[..]);
    }

    #[test]
    fn snapshot_rejects_param_mismatch_like_load_params() {
        let path = ckpt_path("snapshot_params");
        let (store, snap) = sample_snapshot();
        save_snapshot(&store, &snap, &path, None).unwrap();

        let mut other = ParamStore::new();
        let _ = other.register("w", vec![2], vec![0.0; 2]);
        let _ = other.register("b", vec![2], vec![0.0; 2]); // wrong shape
        let err = load_snapshot(&mut other, &path).expect_err("shape mismatch must fail");
        assert!(err.to_string().contains('b'), "{err}");
    }

    #[test]
    fn snapshot_rejects_truncated_and_corrupt_bytes() {
        let path = ckpt_path("snapshot_torn");
        let (store, snap) = sample_snapshot();
        save_snapshot(&store, &snap, &path, None).unwrap();
        let full = fs::read(&path).unwrap();

        // truncated (torn write)
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        let (mut s1, _) = sample_snapshot();
        let err = load_snapshot(&mut s1, &path).expect_err("truncated snapshot must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // chaos-corrupted via the deterministic plan (flip one byte)
        use harp_chaos::{CorruptMode, FaultKind};
        let plan = FaultPlan::new(
            vec![FaultKind::CorruptCheckpoint {
                write: 0,
                mode: CorruptMode::Flip,
            }],
            7,
        );
        save_snapshot(&store, &snap, &path, Some(&plan)).unwrap();
        let (mut s2, _) = sample_snapshot();
        assert!(
            load_snapshot(&mut s2, &path).is_err(),
            "flipped byte must not load cleanly"
        );
    }

    /// XOR 0x20 — the chaos plan's `flip` — on each byte in turn. Before
    /// the checksum, 47 of the sample snapshot's flips loaded cleanly, among
    /// them three that flip a stored value's sign (`-` becomes `\r`, which
    /// JSON skips as whitespace).
    fn assert_every_flip_is_rejected(path: &Path, load: impl Fn(&Path) -> io::Result<()>) -> usize {
        let full = fs::read(path).unwrap();
        for pos in 0..full.len() {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x20;
            fs::write(path, &bytes).unwrap();
            let err = load(path).expect_err("a flipped byte must not load");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "flip at {pos} ({:?}): {err}",
                full[pos] as char
            );
        }
        full.len()
    }

    #[test]
    fn every_single_byte_flip_of_a_snapshot_is_rejected() {
        let path = ckpt_path("snapshot_flips");
        let (store, snap) = sample_snapshot();
        save_snapshot(&store, &snap, &path, None).unwrap();
        let n = assert_every_flip_is_rejected(&path, |p| {
            let (mut s, _) = sample_snapshot();
            load_snapshot(&mut s, p).map(|_| ())
        });
        assert!(n > TRAILER_LEN);
    }

    #[test]
    fn every_single_byte_flip_of_a_params_file_is_rejected() {
        let path = ckpt_path("params_flips");
        let (store, _) = sample_snapshot();
        save_params(&store, &path).unwrap();
        let n = assert_every_flip_is_rejected(&path, |p| {
            let (mut s, _) = sample_snapshot();
            load_params(&mut s, p)
        });
        assert!(n > TRAILER_LEN);
    }

    #[test]
    fn a_file_without_its_trailer_is_rejected() {
        let path = ckpt_path("params_unsealed");
        let (store, _) = sample_snapshot();
        save_params(&store, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, unseal(&bytes).unwrap()).unwrap();
        let (mut s, _) = sample_snapshot();
        let err = load_params(&mut s, &path).expect_err("plain JSON is not a checkpoint");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("integrity check"), "{err}");
    }

    #[test]
    fn snapshot_truncation_sweep_names_a_section_and_never_panics() {
        let path = ckpt_path("snapshot_sweep");
        let (store, snap) = sample_snapshot();
        save_snapshot(&store, &snap, &path, None).unwrap();
        let full = fs::read(&path).unwrap();

        // Cut the file at every prefix length (0 = empty file, len-1 = one
        // byte short). Every cut must come back as a typed InvalidData
        // error — never a panic, never a half-loaded store — and once the
        // cut lands past the first section key the message must localize
        // the damage to a real section name.
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (mut s, _) = sample_snapshot();
            let err =
                load_snapshot(&mut s, &path).expect_err("every truncated prefix must be rejected");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: wrong error kind: {err}"
            );
            let msg = err.to_string();
            if msg.contains("not valid JSON") {
                assert!(
                    msg.contains("section '"),
                    "cut at {cut}: parse error must name a section: {msg}"
                );
            }
        }

        // The localization must actually track the cut point: a cut inside
        // the history array blames 'history', one before any key blames the
        // preamble.
        let text = String::from_utf8(full.clone()).unwrap();
        let hist_at = text.find("\"history\"").unwrap();
        fs::write(&path, &full[..hist_at + "\"history\"".len() + 3]).unwrap();
        let (mut s, _) = sample_snapshot();
        let msg = load_snapshot(&mut s, &path).unwrap_err().to_string();
        assert!(
            msg.contains("section 'history'"),
            "cut inside history must blame history: {msg}"
        );

        fs::write(&path, &full[..1]).unwrap();
        let (mut s, _) = sample_snapshot();
        let msg = load_snapshot(&mut s, &path).unwrap_err().to_string();
        assert!(
            msg.contains("preamble"),
            "cut before any key must blame the preamble: {msg}"
        );
    }
}
