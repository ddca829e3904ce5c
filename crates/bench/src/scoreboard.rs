//! The reproduction scoreboard: the paper's claims as data, the verdict
//! rule, and the `scoreboard.<mode>.json` file `repro` keeps up to date.

use std::path::Path;

use serde_json::{json, Value};

/// What a measured value must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// At most this value.
    AtMost(f64),
    /// At least this value.
    AtLeast(f64),
    /// Inside `[lo, hi]`. A "~x" in the paper is read as within a factor
    /// of two: `[x / 2, 2x]`.
    Between(f64, f64),
}

impl Bound {
    /// Whether `v` meets the bound. A value exactly at a bound holds; NaN
    /// never does.
    pub fn holds(self, v: f64) -> bool {
        match self {
            Bound::AtMost(b) => v <= b,
            Bound::AtLeast(b) => v >= b,
            Bound::Between(lo, hi) => lo <= v && v <= hi,
        }
    }

    fn label(self) -> String {
        match self {
            Bound::AtMost(b) => format!("≤ {b}"),
            Bound::AtLeast(b) => format!("≥ {b}"),
            Bound::Between(lo, hi) => format!("{lo} – {hi}"),
        }
    }
}

/// Whether a claim is one of the paper's numbers or one of its orderings
/// (who beats whom, what stays unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A number the paper reports.
    Number,
    /// An ordering the paper reports, measured as a margin or a ratio.
    Ordering,
}

/// One paper quantity and the bound its measured value must meet.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// What is measured.
    pub quantity: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// Number or ordering.
    pub kind: Kind,
    /// The bound the measured value must meet.
    pub bound: Bound,
}

/// A paper number.
pub const fn number(quantity: &'static str, paper: &'static str, bound: Bound) -> Claim {
    Claim {
        quantity,
        paper,
        kind: Kind::Number,
        bound,
    }
}

/// A paper ordering.
pub const fn ordering(quantity: &'static str, paper: &'static str, bound: Bound) -> Claim {
    Claim {
        quantity,
        paper,
        kind: Kind::Ordering,
        bound,
    }
}

/// How far an experiment reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every row holds.
    Reproduces,
    /// Every ordering row holds; some number misses.
    ShapeOnly,
    /// An ordering row misses.
    DoesNot,
}

impl Verdict {
    /// The scoreboard's text for the verdict.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Reproduces => "reproduces",
            Verdict::ShapeOnly => "shape only",
            Verdict::DoesNot => "does not",
        }
    }
}

/// The verdict of `measured` (aligned with `claims`).
pub fn verdict(claims: &[Claim], measured: &[f64]) -> Verdict {
    let mut verdict = Verdict::Reproduces;
    for (claim, &v) in claims.iter().zip(measured) {
        if !claim.bound.holds(v) {
            if claim.kind == Kind::Ordering {
                return Verdict::DoesNot;
            }
            verdict = Verdict::ShapeOnly;
        }
    }
    verdict
}

/// One experiment's scoreboard rows, one per claim.
pub fn rows(
    id: &str,
    claims: &[Claim],
    measured: &[f64],
    denominator: &str,
    wall_s: f64,
) -> Vec<Value> {
    let verdict = verdict(claims, measured).label();
    claims
        .iter()
        .zip(measured)
        .map(|(c, &v)| {
            json!({
                "id": id,
                "quantity": c.quantity,
                "paper": c.paper,
                "kind": if c.kind == Kind::Number { "number" } else { "ordering" },
                "target": c.bound.label(),
                "measured": v,
                "holds": c.bound.holds(v),
                "verdict": verdict,
                "denominator": denominator,
                "wall_s": (wall_s * 10.0).round() / 10.0,
            })
        })
        .collect()
}

/// The scoreboard at `path` with the rows of every id in `ran` replaced
/// by `fresh`, ordered by each row's id position in `order` (the table).
pub fn merge(path: &Path, mode: &str, fresh: Vec<Value>, ran: &[&str], order: &[&str]) -> Value {
    let old: Option<Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let mut rows: Vec<Value> = old
        .as_ref()
        .and_then(|b| b["rows"].as_array())
        .into_iter()
        .flatten()
        .filter(|r| !ran.iter().any(|id| r["id"] == *id))
        .cloned()
        .chain(fresh)
        .collect();
    rows.sort_by_key(|r| order.iter().position(|id| r["id"] == *id));
    json!({ "mode": mode, "rows": rows })
}

/// The scoreboard as a markdown table.
pub fn markdown(board: &Value) -> String {
    let mut out = String::from(
        "| id | quantity | paper | target | measured | holds | verdict | denominator | wall_s |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for r in board["rows"].as_array().into_iter().flatten() {
        let text = |k: &str| r[k].as_str().unwrap_or_default().to_string();
        let measured = r["measured"]
            .as_f64()
            .map_or("NaN".to_string(), |v| format!("{v:.3}"));
        out.push_str(&format!(
            "| {} | {} | {} | {} | {measured} | {} | {} | {} | {} |\n",
            text("id"),
            text("quantity"),
            text("paper"),
            text("target"),
            if r["holds"] == true { "✓" } else { "✗" },
            text("verdict"),
            text("denominator"),
            r["wall_s"],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLAIMS: [Claim; 2] = [
        number("max", "1.86", Bound::AtMost(1.86)),
        ordering("DOTE − HARP", "> 0", Bound::AtLeast(0.01)),
    ];

    #[test]
    fn a_value_exactly_at_its_bound_holds() {
        assert!(Bound::AtMost(1.86).holds(1.86));
        assert!(Bound::AtLeast(0.98).holds(0.98));
        assert!(Bound::Between(0.2, 0.8).holds(0.2));
        assert!(Bound::Between(0.2, 0.8).holds(0.8));
        assert_eq!(verdict(&CLAIMS, &[1.86, 0.01]), Verdict::Reproduces);
    }

    #[test]
    fn nan_misses_every_bound() {
        for b in [
            Bound::AtMost(1.0),
            Bound::AtLeast(1.0),
            Bound::Between(0.0, 2.0),
        ] {
            assert!(!b.holds(f64::NAN), "{b:?}");
        }
        assert_eq!(verdict(&CLAIMS, &[f64::NAN, 0.5]), Verdict::ShapeOnly);
    }

    #[test]
    fn one_ordering_miss_gives_does_not() {
        assert_eq!(verdict(&CLAIMS, &[1.0, 0.0]), Verdict::DoesNot);
        assert_eq!(verdict(&CLAIMS, &[9.0, f64::NAN]), Verdict::DoesNot);
    }

    #[test]
    fn merge_replaces_only_the_rows_of_the_ids_run() {
        let dir = std::env::temp_dir().join(format!("harp_scoreboard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scoreboard.quick.json");
        let order = ["a", "b"];
        let both = [
            rows("b", &CLAIMS, &[1.0, 1.0], "—", 1.0),
            rows("a", &CLAIMS, &[1.0, 1.0], "—", 2.0),
        ]
        .concat();
        let first = merge(&path, "quick", both, &order, &order);
        std::fs::write(&path, first.to_string()).unwrap();
        let b_again = rows("b", &CLAIMS, &[1.0, 0.0], "—", 3.0);
        let second = merge(&path, "quick", b_again, &["b"], &order);
        let ids: Vec<&str> = second["rows"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["id"].as_str().unwrap())
            .collect();
        assert_eq!(ids, ["a", "a", "b", "b"]);
        assert_eq!(second["rows"][0]["verdict"], "reproduces");
        assert_eq!(second["rows"][2]["verdict"], "does not");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
