//! One harness under the CI gate binaries: `adaptive_replan`, `brownout`,
//! `modality_sweep`, `multi_tenant` and `server_throughput`.
//!
//! A gate binary declares its flags and their defaults ([`Args`]), puts
//! its header parameters and one row of `(key, JSON text)` cells per
//! measured point into a [`Report`], and declares its checks as data
//! ([`Verdicts`]). The JSON artifact and the stdout table are both
//! rendered from the report's cells, so the two cannot disagree.

use std::fmt::{self, Display};
use std::str::FromStr;

/// One cell: a key and its value as JSON text.
pub type Cell = (&'static str, String);

/// A gate binary's command line: its own flags, plus `--json PATH` and
/// `--assert`, which every gate binary takes.
pub struct Args {
    bench: &'static str,
    /// Each declared flag and its value, the default unless given.
    values: Vec<(&'static str, String)>,
    /// Where to write the JSON artifact.
    json: Option<String>,
    /// Judge the checks, and exit 1 if any fails.
    assert: bool,
}

impl Args {
    /// Parses the process's arguments against `flags`, each a flag and
    /// its default. An unknown flag or a flag without its value exits 2.
    pub fn parse(bench: &'static str, flags: &[(&'static str, &str)]) -> Args {
        Self::from_args(bench, flags, std::env::args().skip(1))
            .unwrap_or_else(|problem| usage(bench, flags.iter().map(|f| f.0), &problem))
    }

    fn from_args(
        bench: &'static str,
        flags: &[(&'static str, &str)],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut out = Args {
            bench,
            values: flags.iter().map(|&(f, v)| (f, v.to_string())).collect(),
            json: None,
            assert: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--assert" {
                out.assert = true;
                continue;
            }
            let value = |args: &mut dyn Iterator<Item = String>| {
                args.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            match out.values.iter_mut().find(|(f, _)| *f == flag) {
                Some((_, slot)) => *slot = value(&mut args)?,
                None if flag == "--json" => out.json = Some(value(&mut args)?),
                None => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(out)
    }

    /// The value of a declared flag. A malformed value exits 2.
    pub fn value<T: FromStr>(&self, flag: &str) -> T {
        parse_item(flag, self.raw(flag).trim()).unwrap_or_else(|problem| self.reject(&problem))
    }

    /// A declared flag's comma-separated list. A malformed item exits 2.
    pub fn list<T: FromStr>(&self, flag: &str) -> Vec<T> {
        let items = self.raw(flag).split(',').map(|item| parse_item(flag, item.trim()));
        items.collect::<Result<_, _>>().unwrap_or_else(|problem| self.reject(&problem))
    }

    /// The value of a declared flag, which must be at least `min`.
    pub fn at_least<T: FromStr + PartialOrd + Display>(&self, flag: &str, min: T) -> T {
        let v = self.value(flag);
        if v < min {
            self.reject(&format!("{flag} must be at least {min}, got {v}"));
        }
        v
    }

    fn raw(&self, flag: &str) -> &str {
        let declared = self.values.iter().find(|(f, _)| *f == flag);
        &declared.unwrap_or_else(|| panic!("{} reads undeclared flag {flag}", self.bench)).1
    }

    fn reject(&self, problem: &str) -> ! {
        usage(self.bench, self.values.iter().map(|v| v.0), problem)
    }
}

fn parse_item<T: FromStr>(flag: &str, item: &str) -> Result<T, String> {
    item.parse().map_err(|_| format!("{flag} takes {}, got '{item}'", std::any::type_name::<T>()))
}

fn usage<'a>(bench: &str, flags: impl Iterator<Item = &'a str>, problem: &str) -> ! {
    let accepted: Vec<&str> = flags.chain(["--json", "--assert"]).collect();
    eprintln!("{bench}: {problem}; flags: {}", accepted.join(" "));
    std::process::exit(2)
}

/// A float with `places` decimals, or `null` when it is not finite.
pub fn fixed(v: f64, places: usize) -> String {
    if v.is_finite() {
        format!("{v:.places$}")
    } else {
        "null".to_string()
    }
}

/// A JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON list of items that are already JSON text.
pub fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A one-line JSON object.
pub fn object(cells: &[Cell]) -> String {
    let cells: Vec<String> = cells.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    format!("{{{}}}", cells.join(", "))
}

/// A gate binary's results: its name, its header parameters and one row
/// of cells per measured point.
pub struct Report {
    bench: &'static str,
    params: Vec<Cell>,
    rows: Vec<Vec<Cell>>,
}

impl Report {
    /// An empty report for the named bench.
    pub fn new(bench: &'static str) -> Report {
        Report { bench, params: Vec::new(), rows: Vec::new() }
    }

    /// Adds a header parameter; its `Display` form must be JSON text.
    pub fn param(mut self, key: &'static str, value: impl Display) -> Report {
        self.params.push((key, value.to_string()));
        self
    }

    /// Adds one row.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        self.rows.push(cells.into_iter().collect());
    }

    /// The JSON artifact: the header parameters, then the rows one a line.
    pub fn json(&self) -> String {
        let mut out = format!("{{\n  \"bench\": {},\n", string(self.bench));
        for (key, value) in &self.params {
            out.push_str(&format!("  {}: {value},\n", string(key)));
        }
        let rows: Vec<String> = self.rows.iter().map(|r| format!("    {}", object(r))).collect();
        out.push_str(&format!("  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n")));
        out
    }

    /// The stdout table: the header parameters, then one right-aligned
    /// column per cell key, headed by the first row's keys.
    pub fn table(&self) -> String {
        let params: Vec<String> = self.params.iter().map(|(k, v)| format!("{k} {v}")).collect();
        let mut out = format!("{}: {}\n", self.bench, params.join(", "));
        let Some(first) = self.rows.first() else { return out };
        let lines: Vec<Vec<&str>> = std::iter::once(first.iter().map(|c| c.0).collect())
            .chain(self.rows.iter().map(|r| r.iter().map(|c| c.1.as_str()).collect()))
            .collect();
        let widths: Vec<usize> = (0..first.len())
            .map(|i| lines.iter().filter_map(|l| l.get(i)).map(|c| c.len()).max().unwrap_or(0))
            .collect();
        for line in &lines {
            let cells: Vec<String> =
                line.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}")).collect();
            out.push_str(&format!("{}\n", cells.join("  ")));
        }
        out
    }

    /// Prints the table, and writes the JSON artifact if `--json` asked.
    pub fn publish(&self, args: &Args) {
        print!("{}", self.table());
        if let Some(path) = &args.json {
            std::fs::write(path, self.json()).expect("write JSON artifact");
            println!("wrote {path}");
        }
    }
}

/// What a check's numbers come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Deterministic: a simulator's virtual time, or no clock at all.
    Virtual,
    /// Measured on the host's wall clock, so subject to its noise.
    Wall,
}

impl Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Clock::Virtual => "virtual time",
            Clock::Wall => "wall clock",
        })
    }
}

/// A gate binary's checks, each its clock, whether it passed, and the
/// message printed when it fails.
#[derive(Default)]
pub struct Verdicts {
    checks: Vec<(Clock, bool, String)>,
}

impl Verdicts {
    /// Records one check.
    pub fn check(&mut self, clock: Clock, pass: bool, message: impl Into<String>) {
        self.checks.push((clock, pass, message.into()));
    }

    /// The failed checks' messages, each tagged with its clock.
    pub fn failures(&self) -> Vec<String> {
        self.checks
            .iter()
            .filter(|(_, pass, _)| !pass)
            .map(|(clock, _, message)| format!("{message} ({clock})"))
            .collect()
    }

    /// Under `--assert`: prints `FAIL:` for each failed check and exits 1
    /// if any failed, else prints `assert ok:` with the checks' count.
    /// Without it, does nothing.
    pub fn finish(&self, args: &Args) {
        if !args.assert {
            return;
        }
        let failures = self.failures();
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        let wall = self.checks.iter().filter(|c| c.0 == Clock::Wall).count();
        let n = self.checks.len();
        println!("assert ok: all {n} checks passed ({} virtual time, {wall} wall clock)", n - wall);
    }
}
