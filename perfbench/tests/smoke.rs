//! Runs the benchmark command on tiny versions of every workload and checks
//! its output contract against `BENCHMARK.json`, and that planted faults
//! are counted as failed operations and fail the command.

use perfbench::run::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for the benchmark's own output and `BENCHMARK.json`.
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
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m
                .get(key)
                .unwrap_or_else(|| panic!("no key {key} in {self:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected '{}' at byte {}",
            c as char, self.i
        );
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
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected '{}' in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected '{}' in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => {
                            // Copy the whole UTF-8 sequence.
                            let start = self.i - 1;
                            while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                        }
                    }
                }
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number '{text}'")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Runs the command; returns its exit status and the parsed last line.
fn run(workload: &str, trace: u8, inject: Option<&str>) -> (bool, Json) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"]);
    if let Some(fault) = inject {
        cmd.args(["--inject", fault]);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), Json::parse(last))
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_command_reports() {
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(workloads, ["churn-long", "arrivals-k32", "serve-replicate"]);
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in ["churn-long", "arrivals-k32", "serve-replicate"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ok, out) = run(workload, trace, None);
            assert!(ok, "{workload} --trace {trace} failed: {out:?}");
            assert_eq!(out.get("correct"), &Json::Bool(true));
            assert_eq!(out.get("failed").num(), 0.0);
            assert!(out.get("attempted").num() >= 1.0);
            let metrics = out.get("metrics").obj();
            let want = declared(section);
            assert_eq!(metrics.len(), want.len(), "{workload} --trace {trace}");
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert!(m.get("value").num().is_finite(), "{workload}: {name}");
                assert_eq!(m.get("unit").str(), unit, "{workload}: {name}");
                if trace == 0 {
                    assert!(m.get("value").num() > 0.0, "{workload}: {name} reads 0");
                }
            }
            if trace == 1 {
                // The stage spans nest inside the root `ingest` span, which
                // nests inside the wall-clock around `Leader::ingest`.
                let v = |name: &str| metrics[name].get("value").num();
                let stages: f64 = [
                    "pipeline.validate_ms",
                    "pipeline.split_ms",
                    "pipeline.place_ms",
                    "pipeline.repair_ms",
                    "pipeline.commit_ms",
                    "refine.ms",
                ]
                .iter()
                .map(|s| v(s))
                .sum();
                assert!(stages <= v("pipeline.ingest_ms") + 1e-6, "{workload}");
                assert!(v("wire.append_ms") >= 0.0, "{workload}");
                assert!(v("pipeline.ingest_ms") > 0.0, "{workload}");
            }
        }
    }
}

#[test]
fn a_batch_violating_eps_fails_the_command() {
    let (ok, out) = run("churn-long", 0, Some("eps"));
    assert!(!ok, "the command must exit non-zero");
    assert_eq!(out.get("correct"), &Json::Bool(false));
    assert!(out.get("failed").num() >= 1.0);
}

#[test]
fn a_diverged_replay_fails_the_command() {
    let (ok, out) = run("serve-replicate", 0, Some("diverge"));
    assert!(!ok, "the command must exit non-zero");
    assert_eq!(out.get("correct"), &Json::Bool(false));
    assert!(out.get("failed").num() >= 1.0);
}
