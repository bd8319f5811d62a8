//! `BENCHMARK.json`: checked against the workloads and metrics this
//! crate produces and against the largest bound a metric may carry.

use crate::{END_TO_END, PER_LAYER, WORKLOADS};
pub use nvdimmc_bench::scaleout::{parse_json, Json};

/// The largest share of the parent's median by which an end-to-end
/// metric may be allowed to worsen.
pub const MAX_BOUND: f64 = 0.25;

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{key} is not an array"))
}

fn field<'a>(entry: &'a Json, key: &str) -> Option<&'a str> {
    entry.get(key).and_then(Json::as_str)
}

/// Checks that a parsed `BENCHMARK.json` lists exactly [`WORKLOADS`],
/// [`END_TO_END`] and [`PER_LAYER`], in order and with their units, and
/// that every end-to-end bound lies in `(0, MAX_BOUND]`.
///
/// # Errors
///
/// Describes the first mismatch found.
pub fn validate(doc: &Json) -> Result<(), String> {
    let names: Vec<Option<&str>> = list(doc, "workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    if names != WORKLOADS.iter().map(|w| Some(*w)).collect::<Vec<_>>() {
        return Err(format!(
            "workloads {names:?}, the benchmark runs {WORKLOADS:?}"
        ));
    }
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(Option<&str>, Option<&str>)> = list(doc, key)?
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let want: Vec<(Option<&str>, Option<&str>)> = catalogue
            .iter()
            .map(|(n, u)| (Some(*n), Some(*u)))
            .collect();
        if listed != want {
            return Err(format!(
                "{key} lists {listed:?}, the benchmark prints {catalogue:?}"
            ));
        }
    }
    for m in list(doc, "end_to_end")? {
        let bound = m.get("bound").and_then(Json::as_num);
        if !bound.is_some_and(|b| b > 0.0 && b <= MAX_BOUND) {
            return Err(format!(
                "{:?}: bound {bound:?} outside (0, {MAX_BOUND}]",
                field(m, "name")
            ));
        }
    }
    Ok(())
}
