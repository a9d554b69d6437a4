//! Chrome Trace Format export: turn a run manifest's span tree into a JSON
//! file that `chrome://tracing` and Perfetto open directly.
//!
//! [`chrome_trace`] renders an already-built [`RunManifest`] — the path
//! behind `metasim obs export-trace MANIFEST.json` and
//! `metasim study --trace-out FILE`. Shard subtrees (`shard:K`) land on
//! their own track (`tid = K + 2`) so a `--jobs 8` run shows eight worker
//! lanes under the main lane.
//!
//! [`validate_chrome_trace`] checks that output (and anything else claiming
//! to be a Chrome trace): valid JSON, known event types, per-track monotone
//! timestamps, and matched begin/end pairs.

use std::collections::HashMap;

use serde::Value;

use crate::manifest::{RunManifest, SpanNode};

/// The `pid` every event carries: one study run is one logical process.
const TRACE_PID: u64 = 1;

/// Track id of the main (non-shard) lane.
const MAIN_TID: u64 = 1;

/// Track id for shard `K` is `K + SHARD_TID_OFFSET`, leaving tid 1 for the
/// main lane.
const SHARD_TID_OFFSET: u64 = 2;

const US_PER_SEC: f64 = 1e6;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn meta_event(name: &str, tid: u64, value: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::U64(TRACE_PID)),
        ("tid", Value::U64(tid)),
        ("args", obj(vec![("name", Value::Str(value.to_string()))])),
    ])
}

/// Track id for a span name: `shard:K` subtrees get their own lane.
fn shard_tid(name: &str) -> Option<u64> {
    let k: u64 = name.strip_prefix("shard:")?.parse().ok()?;
    Some(k + SHARD_TID_OFFSET)
}

/// One timed event plus the key it sorts on. Kept separate from the JSON
/// value so the stable sort never has to re-parse `ts` back out.
struct TimedEvent {
    ts: f64,
    value: Value,
}

fn duration_event(ph: &str, name: &str, ts: f64, tid: u64) -> TimedEvent {
    let mut pairs = vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("ts", Value::F64(ts)),
        ("pid", Value::U64(TRACE_PID)),
        ("tid", Value::U64(tid)),
    ];
    if ph == "E" {
        // End events inherit the name from their begin pair; keeping it
        // anyway makes the raw JSON greppable. Category marks ours.
        pairs.push(("cat", Value::Str("metasim".to_string())));
    }
    TimedEvent {
        ts,
        value: obj(pairs),
    }
}

/// Depth-first emission of one span subtree onto `events`.
///
/// Timestamps are clamped per track (`last_ts`): spans opened through an
/// explicit [`SpanCtx`](crate::SpanCtx) need not nest in time, so sibling
/// spans on one track can *overlap* in wall time even though the log is
/// sequential. Chrome's
/// duration-event model needs properly nested B/E pairs per track, so each
/// event's timestamp is pulled up to the track's high-water mark — durations
/// of overlapping siblings stay exact, only their placement shifts.
fn emit_node(
    node: &SpanNode,
    tid: u64,
    events: &mut Vec<TimedEvent>,
    last_ts: &mut HashMap<u64, f64>,
) {
    let tid = shard_tid(&node.name).unwrap_or(tid);
    let start = node.start_seconds * US_PER_SEC;
    let begin = start.max(*last_ts.get(&tid).unwrap_or(&0.0));
    events.push(duration_event("B", &node.name, begin, tid));
    last_ts.insert(tid, begin);
    for child in &node.children {
        emit_node(child, tid, events, last_ts);
    }
    let end = (start + node.seconds * US_PER_SEC).max(*last_ts.get(&tid).unwrap_or(&0.0));
    events.push(duration_event("E", &node.name, end, tid));
    last_ts.insert(tid, end);
}

/// Render a run manifest's span tree as Chrome Trace Format JSON
/// (`{"traceEvents": [...]}`).
///
/// The output opens in `chrome://tracing` and [Perfetto]. Track layout:
/// everything on the main lane (`tid` 1) except `shard:K` subtrees, which
/// get lane `K + 2` — a parallel run reads as one lane per worker shard.
///
/// [Perfetto]: https://ui.perfetto.dev
#[must_use]
pub fn chrome_trace(manifest: &RunManifest) -> String {
    let mut events: Vec<TimedEvent> = Vec::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for root in &manifest.span_tree {
        emit_node(root, MAIN_TID, &mut events, &mut last_ts);
    }
    // Humans and diff tools both like a time-ordered stream; per-track
    // order is already monotone, so a stable sort cannot break nesting.
    events.sort_by(|a, b| a.ts.partial_cmp(&b.ts).expect("clamped finite ts"));

    let mut all: Vec<Value> = Vec::with_capacity(events.len() + 2);
    all.push(meta_event(
        "process_name",
        MAIN_TID,
        &format!("metasim study ({})", manifest.config_digest),
    ));
    let mut tids: Vec<u64> = last_ts.keys().copied().collect();
    tids.sort_unstable();
    for tid in tids {
        let label = if tid == MAIN_TID {
            "main".to_string()
        } else {
            format!("shard worker {}", tid - SHARD_TID_OFFSET)
        };
        all.push(meta_event("thread_name", tid, &label));
    }
    all.extend(events.into_iter().map(|e| e.value));

    let doc = obj(vec![
        ("traceEvents", Value::Array(all)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("trace values are finite")
}

/// What [`validate_chrome_trace`] measured while checking a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Matched begin/end pairs (== recorded spans).
    pub pairs: usize,
    /// Distinct `(pid, tid)` tracks carrying duration events.
    pub tracks: usize,
}

fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

fn event_field(ev: &Value, key: &str, i: usize) -> Result<f64, String> {
    ev.get(key)
        .and_then(num)
        .ok_or_else(|| format!("event {i}: missing numeric \"{key}\""))
}

/// Validate Chrome Trace Format JSON: both the object form
/// (`{"traceEvents": [...]}`) and the bare streaming array form are
/// accepted, matching what Chrome itself loads.
///
/// Checks per `(pid, tid)` track: timestamps monotone non-decreasing,
/// begin/end events properly nested with matching names, and no unmatched
/// begins left at end of stream.
///
/// # Errors
/// Malformed JSON, a non-object event, an unknown `ph`, a missing field,
/// a timestamp regression, or an unbalanced begin/end.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = serde_json::parse_value(text).map_err(|e| format!("trace is not JSON: {e}"))?;
    let events = match doc.get("traceEvents") {
        Some(v) => v
            .as_array()
            .ok_or_else(|| "\"traceEvents\" is not an array".to_string())?,
        None => doc.as_array().ok_or_else(|| {
            "trace is neither an event array nor {\"traceEvents\": ...}".to_string()
        })?,
    };

    // Per-track open-span stack of (name, begin ts) and high-water mark.
    let mut stacks: HashMap<(u64, u64), Vec<(String, f64)>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut pairs = 0usize;
    for (i, ev) in events.iter().enumerate() {
        if ev.as_object().is_none() {
            return Err(format!("event {i} is not an object"));
        }
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        match ph {
            "M" => {} // metadata: no timestamp semantics
            "B" | "E" => {
                let ts = event_field(ev, "ts", i)?;
                let pid = event_field(ev, "pid", i)? as u64;
                let tid = event_field(ev, "tid", i)? as u64;
                let track = (pid, tid);
                let prev = last_ts.get(&track).copied().unwrap_or(f64::NEG_INFINITY);
                if ts < prev {
                    return Err(format!(
                        "event {i}: timestamp {ts} regresses below {prev} on track {track:?}"
                    ));
                }
                last_ts.insert(track, ts);
                let stack = stacks.entry(track).or_default();
                if ph == "B" {
                    let name = ev
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("event {i}: begin without \"name\""))?;
                    stack.push((name.to_string(), ts));
                } else {
                    let (name, begin_ts) = stack
                        .pop()
                        .ok_or_else(|| format!("event {i}: end with no open begin"))?;
                    if let Some(end_name) = ev.get("name").and_then(Value::as_str) {
                        if end_name != name {
                            return Err(format!(
                                "event {i}: end \"{end_name}\" closes begin \"{name}\""
                            ));
                        }
                    }
                    if ts < begin_ts {
                        return Err(format!("event {i}: span \"{name}\" ends before it begins"));
                    }
                    pairs += 1;
                }
            }
            other => return Err(format!("event {i}: unsupported event type \"{other}\"")),
        }
    }
    if let Some(((pid, tid), stack)) = stacks.iter().find(|(_, s)| !s.is_empty()) {
        return Err(format!(
            "track ({pid}, {tid}) ends with {} unmatched begin(s), first \"{}\"",
            stack.len(),
            stack[0].0
        ));
    }
    Ok(TraceStats {
        events: events.len(),
        pairs,
        tracks: stacks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{ManifestMeta, RunManifest};
    use crate::recorder::{InMemoryRecorder, Recorder};

    /// An `InMemoryRecorder` run shaped like a sharded study: a phase span
    /// with two shard subtrees plus serial work on the main lane.
    fn sharded_manifest() -> RunManifest {
        let rec = InMemoryRecorder::new();
        let study = rec.span_enter(0, "study".into());
        let pre = rec.span_enter(study, "phase:preflight".into());
        rec.span_exit(pre, 1_000_000);
        let phase = rec.span_enter(study, "phase:predictions".into());
        for shard in 0..2u64 {
            let s = rec.span_enter(phase, format!("shard:{shard}"));
            let c = rec.span_enter(s, format!("cell:{shard}"));
            rec.span_exit(c, 2_000_000);
            rec.span_exit(s, 3_000_000);
        }
        rec.span_exit(phase, 4_000_000);
        rec.span_exit(study, 6_000_000);
        RunManifest::build(&rec, ManifestMeta::default())
    }

    #[test]
    fn export_is_valid_and_shards_get_their_own_tracks() {
        let trace = chrome_trace(&sharded_manifest());
        let stats = validate_chrome_trace(&trace).expect("exported trace validates");
        assert_eq!(stats.pairs, 7, "study + 2 phases + 2 shards + 2 cells");
        assert_eq!(stats.tracks, 3, "main + one per shard");
        // Track metadata names each lane.
        assert!(trace.contains("shard worker 0"));
        assert!(trace.contains("shard worker 1"));
        assert!(trace.contains("\"displayTimeUnit\""));
    }

    #[test]
    fn overlapping_siblings_are_clamped_not_dropped() {
        // Two siblings on one track whose wall times overlap (explicitly
        // parented spans): the exporter must clamp, not emit a regression.
        let rec = InMemoryRecorder::new();
        let root = rec.span_enter(0, "study".into());
        let a = rec.span_enter(root, "m:a".into());
        let b = rec.span_enter(root, "m:b".into());
        rec.span_exit(a, 5_000_000);
        rec.span_exit(b, 1_000_000);
        rec.span_exit(root, 6_000_000);
        let m = RunManifest::build(&rec, ManifestMeta::default());
        let trace = chrome_trace(&m);
        let stats = validate_chrome_trace(&trace).expect("clamped trace validates");
        assert_eq!(stats.pairs, 3);
    }

    #[test]
    fn validator_rejects_broken_streams() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("[{\"ph\": \"Z\"}]").is_err());
        // Unmatched begin.
        let unmatched = "[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1}]";
        assert!(validate_chrome_trace(unmatched)
            .unwrap_err()
            .contains("unmatched"));
        // End closing the wrong begin.
        let crossed = concat!(
            "[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1},",
            "{\"name\":\"y\",\"ph\":\"E\",\"ts\":2,\"pid\":1,\"tid\":1}]"
        );
        assert!(validate_chrome_trace(crossed).is_err());
        // Timestamp regression on one track.
        let regress = concat!(
            "[{\"name\":\"x\",\"ph\":\"B\",\"ts\":5,\"pid\":1,\"tid\":1},",
            "{\"name\":\"x\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}]"
        );
        assert!(validate_chrome_trace(regress)
            .unwrap_err()
            .contains("regresses"));
    }
}
