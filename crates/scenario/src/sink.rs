//! Streaming metric sinks.
//!
//! Every phase of a scenario run emits one [`MetricRecord`]; sinks
//! decide where the stream goes (a JSONL file, memory, nowhere). The
//! JSON encoding is hand-rolled — records are flat and the workspace is
//! offline — and one record is always exactly one line, so outputs are
//! `grep`/`jq`-friendly and diffable.

use std::collections::BTreeMap;
use std::fmt;

/// Schema version stamped into every emitted record line. Lines
/// without the field (pre-versioning streams) parse as version 1;
/// version 2 added the stamp itself. Consumers (`bbncg-report`) accept
/// both.
pub const SCHEMA_VERSION: u64 = 2;

/// One metric record: the state of the world after a phase (or the
/// run-final summary, `kind = "summary"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricRecord {
    /// Scenario name.
    pub scenario: String,
    /// Seed of the run that produced this record.
    pub seed: u64,
    /// 0-based phase index (`phases.len()` for the summary record).
    pub phase: usize,
    /// Phase kind (`"dynamics"`, `"arrive"`, …, `"summary"`).
    pub kind: &'static str,
    /// Players after the phase.
    pub n: usize,
    /// Arcs after the phase.
    pub arcs: usize,
    /// Applied deviations (cumulative in the summary record; 0 for
    /// perturbation events).
    pub steps: usize,
    /// Completed dynamics rounds (cumulative in the summary record).
    pub rounds: usize,
    /// Social cost: diameter, or `n²` when disconnected.
    pub social_cost: u64,
    /// Finite diameter, if connected.
    pub diameter: Option<u32>,
    /// Dynamics phases: did the phase converge?
    pub converged: Option<bool>,
    /// Dynamics phases: was a best-response cycle proven?
    pub cycled: Option<bool>,
    /// Stable FNV-1a hash of the post-phase profile.
    pub state_hash: u64,
}

impl MetricRecord {
    /// Encode as one JSON line (no trailing newline) in one buffer of
    /// exactly the line's length: the fields are written twice, the
    /// first time only to count their bytes.
    pub fn to_json(&self) -> String {
        let mut len = ByteCount(0);
        let _ = self.write_json(&mut len);
        let mut s = String::with_capacity(len.0);
        let _ = self.write_json(&mut s);
        debug_assert_eq!(s.len(), len.0);
        s
    }

    fn write_json(&self, w: &mut impl fmt::Write) -> fmt::Result {
        write!(w, "{{\"schema_version\":{SCHEMA_VERSION},\"scenario\":\"")?;
        escape_into(w, &self.scenario)?;
        write!(
            w,
            "\",\"seed\":{},\"phase\":{},\"kind\":\"{}\",\"n\":{},\"arcs\":{},\"steps\":{},\
             \"rounds\":{},\"social_cost\":{},\"diameter\":",
            self.seed,
            self.phase,
            self.kind,
            self.n,
            self.arcs,
            self.steps,
            self.rounds,
            self.social_cost,
        )?;
        match self.diameter {
            Some(d) => write!(w, "{d}")?,
            None => w.write_str("null")?,
        }
        write!(
            w,
            ",\"converged\":{},\"cycled\":{},\"state_hash\":\"{:016x}\"}}",
            opt_bool(self.converged),
            opt_bool(self.cycled),
            self.state_hash
        )
    }
}

fn opt_bool(b: Option<bool>) -> &'static str {
    match b {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    }
}

/// A writer that only counts the bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Write `text` as the body of a JSON string.
fn escape_into(w: &mut impl fmt::Write, text: &str) -> fmt::Result {
    for c in text.chars() {
        match c {
            '"' => w.write_str("\\\"")?,
            '\\' => w.write_str("\\\\")?,
            '\n' => w.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
            c => w.write_char(c)?,
        }
    }
    Ok(())
}

/// Where metric records go. Implementations must tolerate being called
/// once per phase, mid-run — that is the point: a killed run has its
/// records up to the last completed phase.
pub trait MetricSink {
    /// Consume one record.
    fn record(&mut self, rec: &MetricRecord);

    /// Flush buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Collect records in memory (tests, diff-harnesses).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Everything recorded so far.
    pub records: Vec<MetricRecord>,
}

impl MetricSink for MemorySink {
    fn record(&mut self, rec: &MetricRecord) {
        self.records.push(rec.clone());
    }
}

/// Discard everything (throughput measurements).
#[derive(Debug, Default)]
pub struct NullSink;

impl MetricSink for NullSink {
    fn record(&mut self, _rec: &MetricRecord) {}
}

/// Stream JSONL to any writer, one line per record, flushed per record
/// so a killed process leaves complete lines behind.
pub struct JsonlSink<W: std::io::Write> {
    w: W,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }

    /// Recover the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: std::io::Write> MetricSink for JsonlSink<W> {
    fn record(&mut self, rec: &MetricRecord) {
        let _ = writeln!(self.w, "{}", rec.to_json());
        let _ = self.w.flush();
    }
}

/// Append JSONL lines to an owned string (the CLI's report-building
/// path).
#[derive(Debug, Default)]
pub struct StringSink {
    /// The accumulated JSONL text.
    pub out: String,
}

impl MetricSink for StringSink {
    fn record(&mut self, rec: &MetricRecord) {
        self.out.push_str(&rec.to_json());
        self.out.push('\n');
    }
}

/// Re-serializer for parallel sweeps: workers finish seeds out of
/// order, but the stream must be deterministic, so completed batches
/// park here until every earlier seed has been flushed. Streaming is
/// preserved — a batch is written the moment it becomes the frontier,
/// not when the sweep ends.
pub struct SeedReorderer<'a> {
    sink: &'a mut (dyn MetricSink + Send),
    /// The seed index the sink is waiting on (= batches written).
    next: usize,
    /// Completed batches parked behind a gap.
    parked: BTreeMap<usize, Vec<MetricRecord>>,
}

impl<'a> SeedReorderer<'a> {
    /// Wrap the downstream sink.
    pub fn new(sink: &'a mut (dyn MetricSink + Send)) -> Self {
        SeedReorderer {
            sink,
            next: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Hand over the records of completed seed-index `idx`, and write
    /// every batch this unblocks — possibly none, possibly several.
    pub fn push(&mut self, idx: usize, records: Vec<MetricRecord>) {
        self.parked.insert(idx, records);
        while let Some(batch) = self.parked.remove(&self.next) {
            for rec in &batch {
                self.sink.record(rec);
            }
            self.sink.flush();
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seed: u64) -> MetricRecord {
        MetricRecord {
            scenario: "t \"quoted\"".into(),
            seed,
            phase: 1,
            kind: "dynamics",
            n: 5,
            arcs: 5,
            steps: 3,
            rounds: 2,
            social_cost: 25,
            diameter: None,
            converged: Some(true),
            cycled: Some(false),
            state_hash: 0xabc,
        }
    }

    #[test]
    fn json_is_one_escaped_line() {
        let j = rec(7).to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"schema_version\":2,"));
        assert!(j.contains("\"scenario\":\"t \\\"quoted\\\"\""));
        assert!(j.contains("\"diameter\":null"));
        assert!(j.contains("\"converged\":true"));
        assert!(j.contains("\"state_hash\":\"0000000000000abc\""));
    }

    /// The encoder `to_json` replaced, one `format!` per field: the
    /// lines must not change by a byte.
    fn reference_json(r: &MetricRecord) -> String {
        let mut scenario = String::new();
        for c in r.scenario.chars() {
            match c {
                '"' => scenario.push_str("\\\""),
                '\\' => scenario.push_str("\\\\"),
                '\n' => scenario.push_str("\\n"),
                c if (c as u32) < 0x20 => scenario.push_str(&format!("\\u{:04x}", c as u32)),
                c => scenario.push(c),
            }
        }
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"scenario\":\"{scenario}\",\"seed\":{},\
             \"phase\":{},\"kind\":\"{}\",\"n\":{},\"arcs\":{},\"steps\":{},\"rounds\":{},\
             \"social_cost\":{},\"diameter\":{},\"converged\":{},\"cycled\":{},\
             \"state_hash\":\"{:016x}\"}}",
            r.seed,
            r.phase,
            r.kind,
            r.n,
            r.arcs,
            r.steps,
            r.rounds,
            r.social_cost,
            opt(r.diameter.map(|d| d.to_string())),
            opt(r.converged.map(|b| b.to_string())),
            opt(r.cycled.map(|b| b.to_string())),
            r.state_hash
        )
    }

    #[test]
    fn json_matches_the_per_field_encoder_byte_for_byte() {
        let names = ["churn", "", "t \"quoted\"", "a\\b\nc\u{1}\u{1f}\t", "ünï ✓"];
        for (i, name) in names.into_iter().enumerate() {
            for (j, big) in [0u64, 9, 10, 99_999, u64::MAX].into_iter().enumerate() {
                let r = MetricRecord {
                    scenario: name.into(),
                    seed: big,
                    phase: i * j,
                    kind: ["dynamics", "summary", "arrive"][j % 3],
                    n: big as usize,
                    arcs: j,
                    steps: 10usize.pow(j as u32),
                    rounds: usize::MAX - j,
                    social_cost: big / 3,
                    diameter: [None, Some(0), Some(u32::MAX)][(i + j) % 3],
                    converged: [None, Some(true), Some(false)][j % 3],
                    cycled: [Some(false), None, Some(true)][i % 3],
                    state_hash: big ^ 0xabc,
                };
                assert_eq!(r.to_json(), reference_json(&r));
            }
        }
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(0));
        sink.record(&rec(1));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn generic_reorderer_flushes_frontier_immediately() {
        let mut mem = MemorySink::default();
        let mut re = SeedReorderer::new(&mut mem);
        re.push(1, vec![rec(1)]);
        assert_eq!(re.next, 0);
        assert_eq!(re.parked.len(), 1);
        re.push(0, vec![rec(0)]);
        // 0 arriving unblocks both 0 and the parked 1.
        assert_eq!(re.next, 2);
        assert!(re.parked.is_empty());
        // The frontier batch is written the moment it arrives.
        re.push(2, vec![rec(2)]);
        assert_eq!(re.next, 3);
        assert!(re.parked.is_empty());
        drop(re);
        let seeds: Vec<u64> = mem.records.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![0, 1, 2]);
    }

    #[test]
    fn reorderer_emits_in_seed_order() {
        let mut mem = MemorySink::default();
        {
            let mut re = SeedReorderer::new(&mut mem);
            re.push(2, vec![rec(2)]);
            re.push(0, vec![rec(0)]);
            re.push(1, vec![rec(1), rec(1)]);
            re.push(3, vec![rec(3)]);
        }
        let seeds: Vec<u64> = mem.records.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![0, 1, 1, 2, 3]);
    }
}
