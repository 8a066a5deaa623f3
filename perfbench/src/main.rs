//! `msrs-perfbench`: the compiled half of the msrs benchmark.
//!
//! `run.py` drives the real `msrs` binary as a subprocess and calls this
//! tool for everything that needs the workspace's library code:
//!
//! ```text
//! msrs-perfbench gen     --workload W --seed S --lines N --out F [--prefill K --prefill-out P]
//! msrs-perfbench check   --input IN --reports OUT [--input IN --reports OUT …] [--store S …] [--extra-input F …]
//! msrs-perfbench loadgen --addr A --input F --rate R --seconds T --limit-us L --lag-limit-us G
//!                        [--offset K] [--out-prefix P]
//! msrs-perfbench closed  --addr A --input F --requests N [--offset K]
//! msrs-perfbench trace   --input F --spans-out P --work-dir D [--expect OUT] [--store-load S]
//! ```
//!
//! Every subcommand prints one JSON object on stdout.

mod check;
mod gen;
mod json;
mod loadgen;
mod trace;

use std::process::ExitCode;

/// `--flag value` pairs; a flag may repeat.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args { pairs })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(name), default) {
            (Some(v), _) => v.parse().map_err(|_| format!("bad --{name} `{v}`")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing --{name}")),
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: msrs-perfbench <gen|check|loadgen|closed|trace> [--flag value …]");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "gen" => gen::cmd(&args),
        "check" => check::cmd(&args),
        "loadgen" => loadgen::cmd_open(&args),
        "closed" => loadgen::cmd_closed(&args),
        "trace" => trace::cmd(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("msrs-perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
