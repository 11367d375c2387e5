//! Renderers for a [`Snapshot`]: human tree summary, line-oriented
//! JSON (one record per line, re-loadable via [`from_json_lines`]),
//! and Chrome `chrome://tracing` trace events.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::{bucket_bounds, CounterRec, GaugeRec, HistRec, JournalRec, RecKind, Snapshot, SpanRec};

// ---------------------------------------------------------------------------
// Human-readable tree summary
// ---------------------------------------------------------------------------

/// An aggregated node of the rendered span tree: all same-named spans
/// sharing an (aggregated) parent collapse into one line.
struct Node {
    name: String,
    count: u64,
    total_ns: u64,
    is_event: bool,
    children: Vec<Node>,
}

fn aggregate(spans: &[SpanRec], child_ids: &[u64], by_parent: &BTreeMap<u64, Vec<usize>>, by_id: &BTreeMap<u64, usize>) -> Vec<Node> {
    // Group this level's spans by name, preserving first-seen order.
    let mut order: Vec<String> = Vec::new();
    let mut groups: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for &id in child_ids {
        let s = &spans[by_id[&id]];
        if !groups.contains_key(&s.name) {
            order.push(s.name.clone());
        }
        groups.entry(s.name.clone()).or_default().push(id);
    }
    order
        .into_iter()
        .map(|name| {
            let ids = &groups[&name];
            let mut count = 0u64;
            let mut total_ns = 0u64;
            let mut is_event = true;
            let mut grandchildren: Vec<u64> = Vec::new();
            for &id in ids {
                let s = &spans[by_id[&id]];
                count += 1;
                total_ns += s.dur_ns;
                is_event &= s.kind == RecKind::Event;
                if let Some(kids) = by_parent.get(&id) {
                    grandchildren.extend(kids.iter().map(|&i| spans[i].id));
                }
            }
            Node {
                name,
                count,
                total_ns,
                is_event,
                children: aggregate(spans, &grandchildren, by_parent, by_id),
            }
        })
        .collect()
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn render_nodes(out: &mut String, nodes: &[Node], depth: usize) {
    for n in nodes {
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", n.name);
        if n.is_event {
            let _ = writeln!(out, "  {label:<44} {:>8}  (event)", n.count);
        } else {
            let _ = writeln!(out, "  {label:<44} {:>8}  {:>12}", n.count, fmt_ns(n.total_ns));
        }
        render_nodes(out, &n.children, depth + 1);
    }
}

/// Renders the snapshot as an indented span tree (same-named spans under
/// the same parent aggregate into count + total wall time) followed by
/// counters, gauges, and histograms.
#[must_use]
pub fn summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    let by_id: BTreeMap<u64, usize> = snap.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut by_parent: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<u64> = Vec::new();
    for (i, s) in snap.spans.iter().enumerate() {
        // A parent that was dropped at the cap (or never closed) makes
        // its children roots: the tree must stay renderable.
        if s.parent != 0 && by_id.contains_key(&s.parent) {
            by_parent.entry(s.parent).or_default().push(i);
        } else {
            roots.push(s.id);
        }
    }

    out.push_str("telemetry summary\n");
    if snap.spans.is_empty() {
        out.push_str("  (no spans recorded)\n");
    } else {
        let _ = writeln!(out, "  {:<44} {:>8}  {:>12}", "span", "count", "total");
        let nodes = aggregate(&snap.spans, &roots, &by_parent, &by_id);
        render_nodes(&mut out, &nodes, 0);
    }
    if snap.spans_dropped > 0 {
        let _ = writeln!(
            out,
            "  ({} spans dropped at the {}-record buffer cap — span timeline incomplete; \
counters and histograms remain complete)",
            snap.spans_dropped,
            crate::span_capacity()
        );
    }

    if !snap.counters.is_empty() {
        out.push_str("counters\n");
        for c in &snap.counters {
            let _ = writeln!(out, "  {:<44} {:>16}", c.name, c.value);
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges (value / high-water)\n");
        for g in &snap.gauges {
            let _ = writeln!(out, "  {:<44} {:>8} / {:>8}", g.name, g.value, g.max);
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms (µs)\n");
        for h in &snap.histograms {
            let avg = if h.count > 0 { h.sum as f64 / h.count as f64 } else { 0.0 };
            let pct = |q: f64| h.percentile_us(q).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<44} n={} avg={avg:.1} p50={} p90={} p99={} min={} max={}",
                h.name,
                h.count,
                pct(0.50),
                pct(0.90),
                pct(0.99),
                h.min,
                h.max
            );
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let (lo, hi) = bucket_bounds(i);
                let bound = match hi {
                    Some(hi) => format!("[{lo}, {hi})"),
                    None => format!("[{lo}, ∞)"),
                };
                let _ = writeln!(out, "    {bound:<20} {n:>10}");
            }
        }
    }
    if !snap.events.is_empty() || !snap.events_dropped.is_empty() {
        out.push_str("journal (most recent last)\n");
        for e in &snap.events {
            let _ = writeln!(
                out,
                "  [{:>6}] +{:<12} {:<28} trace={:016x} a={} b={}",
                e.seq,
                fmt_ns(e.t_ns),
                e.kind,
                e.trace,
                e.a,
                e.b
            );
        }
        for d in &snap.events_dropped {
            let _ = writeln!(
                out,
                "  ({} \"{}\" events dropped at the {}-event journal cap)",
                d.value,
                d.name,
                crate::JOURNAL_CAP
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Line-oriented JSON
// ---------------------------------------------------------------------------

/// Renders the snapshot as line-oriented JSON: one self-describing
/// object per line (`"type"` ∈ meta | span | event | counter | gauge |
/// hist | jevent | jdrop). Order: meta first, then spans by start time,
/// then metrics by name, then journal entries. [`from_json_lines`]
/// inverts this exactly (and still reads version-1 files, whose spans
/// lack the `trace` field — it defaults to 0/untraced).
#[must_use]
pub fn json_lines(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"version\":2,\"spans_dropped\":{}}}",
        snap.spans_dropped
    );
    for s in &snap.spans {
        let ty = match s.kind {
            RecKind::Span => "span",
            RecKind::Event => "event",
        };
        let _ = writeln!(
            out,
            "{{\"type\":\"{ty}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"trace\":{}}}",
            s.id,
            s.parent,
            json::escape(&s.name),
            s.tid,
            s.start_ns,
            s.dur_ns,
            s.trace
        );
    }
    for c in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            json::escape(&c.name),
            c.value
        );
    }
    for g in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{},\"max\":{}}}",
            json::escape(&g.name),
            g.value,
            g.max
        );
    }
    for h in &snap.histograms {
        let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
            json::escape(&h.name),
            h.count,
            h.sum,
            h.min,
            h.max,
            buckets.join(",")
        );
    }
    for e in &snap.events {
        let _ = writeln!(
            out,
            "{{\"type\":\"jevent\",\"seq\":{},\"t_ns\":{},\"trace\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            e.seq,
            e.t_ns,
            e.trace,
            json::escape(&e.kind),
            e.a,
            e.b
        );
    }
    for d in &snap.events_dropped {
        let _ = writeln!(
            out,
            "{{\"type\":\"jdrop\",\"kind\":\"{}\",\"count\":{}}}",
            json::escape(&d.name),
            d.value
        );
    }
    out
}

/// Rebuilds a [`Snapshot`] from [`json_lines`] output (the `pastri
/// report` path). Blank lines are skipped; any malformed line is an
/// error naming its line number.
pub fn from_json_lines(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let bad = |what: &str| format!("line {}: {what}", lineno + 1);
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing \"type\""))?;
        match ty {
            "meta" => {
                snap.spans_dropped = v
                    .get("spans_dropped")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
            }
            "span" | "event" => {
                let field = |k: &str| v.get(k).and_then(Value::as_u64).ok_or_else(|| bad(k));
                snap.spans.push(SpanRec {
                    id: field("id")?,
                    parent: field("parent")?,
                    name: v
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| bad("name"))?
                        .to_string(),
                    tid: u32::try_from(field("tid")?).map_err(|_| bad("tid"))?,
                    start_ns: field("start_ns")?,
                    dur_ns: field("dur_ns")?,
                    kind: if ty == "span" { RecKind::Span } else { RecKind::Event },
                    // Absent in version-1 files: those spans are untraced.
                    trace: v.get("trace").and_then(Value::as_u64).unwrap_or(0),
                });
            }
            "jevent" => {
                let field = |k: &str| v.get(k).and_then(Value::as_u64).ok_or_else(|| bad(k));
                snap.events.push(JournalRec {
                    seq: field("seq")?,
                    t_ns: field("t_ns")?,
                    trace: field("trace")?,
                    kind: v
                        .get("kind")
                        .and_then(Value::as_str)
                        .ok_or_else(|| bad("kind"))?
                        .to_string(),
                    a: field("a")?,
                    b: field("b")?,
                });
            }
            "jdrop" => snap.events_dropped.push(CounterRec {
                name: v
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("kind"))?
                    .to_string(),
                value: v.get("count").and_then(Value::as_u64).ok_or_else(|| bad("count"))?,
            }),
            "counter" => snap.counters.push(CounterRec {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("name"))?
                    .to_string(),
                value: v.get("value").and_then(Value::as_u64).ok_or_else(|| bad("value"))?,
            }),
            "gauge" => snap.gauges.push(GaugeRec {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("name"))?
                    .to_string(),
                value: v.get("value").and_then(Value::as_i64).ok_or_else(|| bad("value"))?,
                max: v.get("max").and_then(Value::as_i64).ok_or_else(|| bad("max"))?,
            }),
            "hist" => snap.histograms.push(HistRec {
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("name"))?
                    .to_string(),
                count: v.get("count").and_then(Value::as_u64).ok_or_else(|| bad("count"))?,
                sum: v.get("sum").and_then(Value::as_u64).ok_or_else(|| bad("sum"))?,
                min: v.get("min").and_then(Value::as_u64).ok_or_else(|| bad("min"))?,
                max: v.get("max").and_then(Value::as_u64).ok_or_else(|| bad("max"))?,
                buckets: v
                    .get("buckets")
                    .and_then(Value::as_array)
                    .ok_or_else(|| bad("buckets"))?
                    .iter()
                    .map(|b| b.as_u64().ok_or_else(|| bad("buckets")))
                    .collect::<Result<_, _>>()?,
            }),
            other => return Err(bad(&format!("unknown record type \"{other}\""))),
        }
    }
    Ok(snap)
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Renders the snapshot as a Chrome trace-event array loadable in
/// `chrome://tracing` / Perfetto: spans become complete (`"X"`) events
/// with microsecond `ts`/`dur`, instants become `"i"` events, and
/// counters are appended as one final `"C"` sample per counter. Each
/// span/instant carries its trace id in `args.trace` so traced requests
/// are searchable in the viewer.
#[must_use]
pub fn chrome(snap: &Snapshot) -> String {
    chrome_with_pid(snap, 1)
}

/// [`chrome`] with an explicit process id — `pastri trace --merge`
/// renders the client snapshot as pid 1 and the server snapshot as
/// pid 2 so the viewer shows one cross-process timeline.
#[must_use]
pub(crate) fn chrome_with_pid(snap: &Snapshot, pid: u64) -> String {
    format!("[{}]\n", chrome_events(snap, pid).join(",\n "))
}

/// One merged Chrome trace from several snapshots, each under its own
/// pid (the cross-process timeline `pastri trace --merge` writes).
#[must_use]
pub fn chrome_merged(parts: &[(&Snapshot, u64)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for &(snap, pid) in parts {
        events.extend(chrome_events(snap, pid));
    }
    format!("[{}]\n", events.join(",\n "))
}

fn chrome_events(snap: &Snapshot, pid: u64) -> Vec<String> {
    let mut events: Vec<String> = Vec::with_capacity(snap.spans.len() + snap.counters.len());
    let mut last_ts_us = 0u64;
    for s in &snap.spans {
        let ts = s.start_ns / 1_000;
        last_ts_us = last_ts_us.max(ts + s.dur_ns / 1_000);
        match s.kind {
            RecKind::Span => events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"pastri\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"trace\":{}}}}}",
                json::escape(&s.name),
                s.dur_ns / 1_000,
                s.tid,
                s.trace
            )),
            RecKind::Event => events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"pastri\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"args\":{{\"trace\":{}}}}}",
                json::escape(&s.name),
                s.tid,
                s.trace
            )),
        }
    }
    for c in &snap.counters {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"pastri\",\"ph\":\"C\",\"ts\":{last_ts_us},\"pid\":{pid},\"tid\":0,\"args\":{{\"value\":{}}}}}",
            json::escape(&c.name),
            c.value
        ));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                SpanRec {
                    id: 1,
                    parent: 0,
                    name: "compress.container".into(),
                    tid: 0,
                    start_ns: 1_000,
                    dur_ns: 9_000_000,
                    kind: RecKind::Span,
                    trace: 0xabcd,
                },
                SpanRec {
                    id: 2,
                    parent: 1,
                    name: "compress.block".into(),
                    tid: 0,
                    start_ns: 2_000,
                    dur_ns: 4_000,
                    kind: RecKind::Span,
                    trace: 0xabcd,
                },
                SpanRec {
                    id: 4,
                    parent: 2,
                    name: "watchdog.fire".into(),
                    tid: 0,
                    start_ns: 3_000,
                    dur_ns: 0,
                    kind: RecKind::Event,
                    trace: 0,
                },
                SpanRec {
                    id: 3,
                    parent: 1,
                    name: "compress.block".into(),
                    tid: 0,
                    start_ns: 7_000,
                    dur_ns: 5_000,
                    kind: RecKind::Span,
                    trace: 0xabcd,
                },
            ],
            counters: vec![CounterRec {
                name: "stream.segments_written".into(),
                value: 7,
            }],
            gauges: vec![GaugeRec {
                name: "stream.queue_depth".into(),
                value: 0,
                max: 4,
            }],
            histograms: vec![HistRec {
                name: "durable.fsync_us".into(),
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                buckets: {
                    let mut b = vec![0u64; crate::HIST_BUCKETS];
                    b[crate::bucket_of(10)] += 1;
                    b[crate::bucket_of(20)] += 1;
                    b
                },
            }],
            spans_dropped: 0,
            events: vec![JournalRec {
                seq: 3,
                t_ns: 5_000,
                trace: 0xabcd,
                kind: "shed.queue_full".into(),
                a: 2,
                b: 17,
            }],
            events_dropped: vec![CounterRec {
                name: "rpc.retry".into(),
                value: 4,
            }],
        }
    }

    #[test]
    fn summary_aggregates_same_named_children() {
        let text = summary(&sample());
        assert!(text.contains("compress.container"), "{text}");
        // Two block spans fold into one line with count 2 and summed time.
        let block_line = text
            .lines()
            .find(|l| l.contains("compress.block"))
            .expect("block line present");
        assert!(block_line.contains('2'), "{block_line}");
        assert!(block_line.contains("9.000 µs"), "{block_line}");
        assert!(text.contains("stream.segments_written"));
        assert!(text.contains("stream.queue_depth"));
        assert!(text.contains("durable.fsync_us"));
    }

    #[test]
    fn json_lines_round_trip() {
        let snap = sample();
        let text = json_lines(&snap);
        for line in text.lines() {
            json::parse(line).expect("every line is standalone JSON");
        }
        let back = from_json_lines(&text).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_lines_rejects_malformed() {
        assert!(from_json_lines("{\"no\":\"type\"}").is_err());
        assert!(from_json_lines("not json").is_err());
        assert!(from_json_lines("{\"type\":\"span\",\"id\":1}").is_err());
        assert!(from_json_lines("{\"type\":\"mystery\"}").is_err());
        assert!(from_json_lines("{\"type\":\"jevent\",\"seq\":1}").is_err());
    }

    #[test]
    fn from_json_lines_reads_version1_spans_as_untraced() {
        let v1 = "{\"type\":\"meta\",\"version\":1,\"spans_dropped\":0}\n\
{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"old\",\"tid\":0,\"start_ns\":5,\"dur_ns\":9}\n";
        let snap = from_json_lines(v1).expect("version-1 files still load");
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].trace, 0);
    }

    #[test]
    fn summary_prints_percentiles_and_journal() {
        let text = summary(&sample());
        let hist_line = text
            .lines()
            .find(|l| l.contains("durable.fsync_us"))
            .expect("hist line present");
        assert!(hist_line.contains("p50="), "{hist_line}");
        assert!(hist_line.contains("p90="), "{hist_line}");
        assert!(hist_line.contains("p99="), "{hist_line}");
        assert!(text.contains("journal"), "{text}");
        assert!(text.contains("shed.queue_full"), "{text}");
        assert!(text.contains("rpc.retry"), "{text}");
    }

    #[test]
    fn chrome_merged_keeps_pids_distinct_and_traces_searchable() {
        let snap = sample();
        let merged = chrome_merged(&[(&snap, 1), (&snap, 2)]);
        let v = json::parse(&merged).expect("merged trace is one JSON array");
        let events = v.as_array().expect("array");
        let pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Value::as_u64))
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        let traced = events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Value::as_u64)
                == Some(0xabcd)
        });
        assert!(traced, "span trace ids present in args");
    }

    #[test]
    fn chrome_export_is_valid_and_monotone() {
        let text = chrome(&sample());
        let v = json::parse(&text).expect("chrome export is one JSON array");
        let events = v.as_array().expect("array");
        assert!(!events.is_empty());
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph");
            assert!(matches!(ph, "X" | "i" | "C"));
            let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
            assert!(ts >= 0.0);
            if ph == "X" {
                let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(dur >= 0.0, "durations are non-negative");
            }
            assert!(e.get("name").and_then(Value::as_str).is_some());
        }
        // Events are emitted in start order: ts is monotone non-decreasing.
        let ts: Vec<f64> = events
            .iter()
            .map(|e| e.get("ts").and_then(Value::as_f64).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }
}
