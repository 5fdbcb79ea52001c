//! Streaming metric sinks.
//!
//! Every phase of a scenario run emits one [`MetricRecord`]; sinks
//! decide where the stream goes (a JSONL file, memory, nowhere). The
//! JSON encoding is hand-rolled — records are flat and the workspace is
//! offline — and one record is always exactly one line, so outputs are
//! `grep`/`jq`-friendly and diffable.

use std::collections::BTreeMap;

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
    /// Encode as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        s.push('{');
        s.push_str(&format!("\"schema_version\":{SCHEMA_VERSION}"));
        s.push_str(&format!(",\"scenario\":\"{}\"", escape(&self.scenario)));
        s.push_str(&format!(",\"seed\":{}", self.seed));
        s.push_str(&format!(",\"phase\":{}", self.phase));
        s.push_str(&format!(",\"kind\":\"{}\"", self.kind));
        s.push_str(&format!(",\"n\":{}", self.n));
        s.push_str(&format!(",\"arcs\":{}", self.arcs));
        s.push_str(&format!(",\"steps\":{}", self.steps));
        s.push_str(&format!(",\"rounds\":{}", self.rounds));
        s.push_str(&format!(",\"social_cost\":{}", self.social_cost));
        match self.diameter {
            Some(d) => s.push_str(&format!(",\"diameter\":{d}")),
            None => s.push_str(",\"diameter\":null"),
        }
        match self.converged {
            Some(b) => s.push_str(&format!(",\"converged\":{b}")),
            None => s.push_str(",\"converged\":null"),
        }
        match self.cycled {
            Some(b) => s.push_str(&format!(",\"cycled\":{b}")),
            None => s.push_str(",\"cycled\":null"),
        }
        s.push_str(&format!(",\"state_hash\":\"{:016x}\"", self.state_hash));
        s.push('}');
        s
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
