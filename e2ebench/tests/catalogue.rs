//! The benchmark's own checks: the metric names every workload prints match
//! `BENCHMARK.json` and the name grammar, and the traced mine pipeline
//! assembles exactly what `SkinnyMine::mine` returns.

use e2ebench::measure::ordered_fingerprint;
use e2ebench::mine::{default_config, fig16_graph, traced_mine, MineTrace};
use e2ebench::{run, Sizes, WORKLOADS};
use skinny_graph::{Label, LabeledGraph};
use skinnymine::{LengthConstraint, ReportMode, SkinnyMine, SkinnyMineConfig};
use std::collections::BTreeMap;

/// A minimal JSON value, enough to read `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in JSON");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected '{}' at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object keys are strings") };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn declared_workloads_are_the_ones_the_command_runs() {
    let json = benchmark_json();
    let names: Vec<&str> = json.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_printed_metric_matches_benchmark_json() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(list);
        for (name, _) in &want {
            assert!(valid_name(name), "{name} breaks the name grammar");
        }
        for workload in WORKLOADS {
            let report = run(workload, &Sizes::TINY, 7, 0.05, trace).expect("a known workload");
            assert!(report.correct, "{workload} (trace {trace}) failed its checks: {:?}", report.errors);
            assert!(report.attempted >= 1);
            if !trace {
                assert!(
                    report.metrics.unset().is_empty(),
                    "{workload} left {:?} unset",
                    report.metrics.unset()
                );
            }
            let line = Parser::parse(&report.json_line());
            assert_eq!(line.get("correct"), &Json::Bool(true));
            let printed: Vec<(String, String)> = line
                .get("metrics")
                .obj()
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(m.get("value"), Json::Num(v) if v.is_finite()), "{name} has no number");
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(printed, want_sorted, "{workload} (trace {trace}) prints other metrics than {list}");
        }
    }
}

fn assert_traced_equals_mine(graph: &LabeledGraph, config: &SkinnyMineConfig) -> MineTrace {
    let mined = SkinnyMine::new(config.clone()).mine(graph).expect("a valid config and input");
    let (traced, trace) = traced_mine(graph, config);
    assert_eq!(traced.len(), mined.patterns.len());
    assert_eq!(ordered_fingerprint(&traced), ordered_fingerprint(&mined.patterns));
    assert_eq!(trace.clusters, mined.stats.clusters);
    assert_eq!(
        trace.candidates_examined + trace.patterns_examined,
        mined.stats.level_grow.candidates_examined
    );
    assert_eq!(trace.rejected_infrequent, mined.stats.rejected_infrequent);
    trace
}

#[test]
fn traced_pipeline_assembles_what_mine_returns() {
    // two copies of a 4-long backbone with a middle twig, plus a 5-cycle
    // (a C_{2l+1} seed for l = 2) on each side
    let labels: Vec<Label> = [0, 1, 2, 3, 4, 9, 0, 1, 2, 3, 4, 9, 5, 6, 7, 6, 5, 5, 6, 7, 6, 5]
        .iter()
        .map(|&x| Label(x))
        .collect();
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (2, 5),
        (6, 7),
        (7, 8),
        (8, 9),
        (9, 10),
        (8, 11),
        (12, 13),
        (13, 14),
        (14, 15),
        (15, 16),
        (16, 12),
        (17, 18),
        (18, 19),
        (19, 20),
        (20, 21),
        (21, 17),
    ];
    let graph = LabeledGraph::from_unlabeled_edges(&labels, edges).expect("a valid graph");
    let with_cycles =
        assert_traced_equals_mine(&graph, &SkinnyMineConfig::new(2, 2, 2).with_report(ReportMode::All));
    assert!(with_cycles.cycle_seeds >= 1, "the 5-cycles must seed a cluster");
    for config in [
        SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All),
        SkinnyMineConfig::new(2, 1, 2).with_length(LengthConstraint::Between(2, 3)),
        SkinnyMineConfig::new(2, 2, 2).with_cycle_seeds(false),
    ] {
        assert_traced_equals_mine(&graph, &config);
    }
    assert_traced_equals_mine(&fig16_graph(Sizes::TINY.fig16_vertices, 3), &default_config());
}
