//! Flag parsing for the `rankfair` CLI (a tiny hand-rolled parser — the
//! workspace stays dependency-light). Each subcommand declares its valid
//! flag set; unknown flags are rejected with the valid set in the error.

use std::collections::BTreeMap;

/// Usage text shown by `rankfair help`.
pub const USAGE: &str = "\
rankfair — detection of groups with biased representation in ranking (ICDE 2023)

USAGE:
  rankfair demo
      Run the paper's Figure 1 running example end to end.

  rankfair detect --csv FILE --rank-by COL [options]
      Audit the ranking for groups with biased representation.
        --sep CHAR          CSV separator (default ',')
        --asc               rank ascending (default: descending)
        --task under|over|combined   what to detect (default under)
        --engine optimized|baseline  algorithm family (default optimized)
        --threads N         worker threads over the k range (default 1, 0 = all cores)
        --shards N          cut the index's rows into N blocks whose pattern
                            counts merge additively (default 1; results are
                            identical to one block)
        --problem global|prop   under measure (default global; task under only)
        --lower N           lower bound L_k (default 10; global under / combined)
        --upper N           upper bound U_k (default 20; over / combined)
        --scope specific|general  over boundary (default specific; task over only)
        --alpha X           proportional factor α (default 0.8; --problem prop only)
        --tau N             size threshold τs (default 50)
        --kmin N --kmax N   k range (default 10..49)
        --deadline SECS     wall-clock budget; exceeding it truncates the k range
        --attrs a,b,c       pattern attributes (default: all categorical)
        --bucketize c=BINS,...  bucketize numeric columns before detection
        --baseline          deprecated alias for --engine baseline
        --top N             print at most N groups per k (default 20)
        --format table|csv|json  output format (default table)

  rankfair serve [options]
      Serve JSONL audit requests from stdin to stdout (one JSON object per
      line, responses in request order). The Figure 1 example dataset is
      preloaded as `fig1`; further datasets are registered with --datasets
      or in-stream {\"op\": \"register\"} requests. Live monitors are
      driven with {\"op\": \"register_monitor\"|\"update\"|\"snapshot\"}.
        --workers N         worker threads answering requests (default 1)
        --datasets n=p,...  preload CSV datasets as name=path pairs
        --no-timing         zero wall-clock fields (deterministic output)

  rankfair serve-net [options]
      Serve the same JSONL protocol over TCP and/or Unix-domain sockets:
      every connection is an independent pipelined session (responses in
      that connection's request order) over one shared worker pool with
      per-monitor/per-dataset ordering. An in-stream {\"op\": \"shutdown\"}
      drains and stops the server. The Figure 1 example dataset is
      preloaded as `fig1`.
        --listen a,b,...    addresses to bind (default tcp:127.0.0.1:7878);
                            forms: tcp:host:port, host:port, unix:/path.sock;
                            repeatable, comma lists and repeats accumulate
        --workers N         worker threads shared by all connections (default 4)
        --datasets n=p,...  preload CSV datasets as name=path pairs
        --max-conns N       concurrent connection cap (default 256); excess
                            connections get one in-band `overloaded` error
        --window N          per-connection pipeline window: responses in
                            flight past dispatch (default 64)
        --max-line-bytes N  longest accepted request line (default 1048576)
        --idle-timeout SECS close connections idle this long; also bounds
                            writes to a peer that never reads (default 300)
        --no-timing         zero wall-clock fields (deterministic output)

  rankfair monitor --csv FILE --rank-by COL --edits FILE [options]
      Replay a JSONL edit log against a live monitor: each log line is one
      edit batch ({\"edit\": \"score\"|\"insert\", ...} or
      {\"edits\": [...]}), re-audited by delta instead of a full rebuild.
        --sep CHAR          CSV separator (default ',')
        --asc               rank ascending (default: descending)
        --task under|over|combined   what to detect (default under)
        --engine optimized|baseline  algorithm family (default optimized)
        --problem global|prop   under measure (default global; task under only)
        --lower N --upper N --scope specific|general --alpha X
                            task parameters, as in detect
        --tau N             size threshold τs (default 50)
        --kmin N --kmax N   k range (default 10..49)
        --attrs a,b,c       pattern attributes (default: all categorical)
        --top N             print at most N groups per k in the final report
        --format table|json output format (default table; json = one delta
                            object per batch plus a final snapshot object)

  rankfair explain --csv FILE --rank-by COL --group \"a=v,b=w\" [options]
      Shapley-explain why a group ranks where it does.
        --k N               top-k used for the distribution comparison (default 49)
        --trees N           forest size (default 30)
        --samples N         Shapley samples per tuple (default 48)

  rankfair compare --csv FILE --rank-by COL [options]
      Run the divergence baseline next to the detection algorithms.
        --k N               top-k (default 10)
        --support X         minimum support fraction (default 0.13)
        --attrs a,b,c       subgroup attributes
";

/// The flags a subcommand accepts: value-taking flags and switches.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flags that take a value (`--flag value`).
    pub values: &'static [&'static str],
    /// Flags that take no value (`--flag`).
    pub switches: &'static [&'static str],
}

/// `rankfair detect`.
pub const DETECT_SPEC: FlagSpec = FlagSpec {
    values: &[
        "csv",
        "sep",
        "rank-by",
        "attrs",
        "bucketize",
        "task",
        "engine",
        "threads",
        "shards",
        "problem",
        "lower",
        "upper",
        "scope",
        "alpha",
        "tau",
        "kmin",
        "kmax",
        "deadline",
        "top",
        "format",
    ],
    switches: &["asc", "baseline"],
};

/// `rankfair explain`.
pub const EXPLAIN_SPEC: FlagSpec = FlagSpec {
    values: &[
        "csv",
        "sep",
        "rank-by",
        "attrs",
        "bucketize",
        "group",
        "k",
        "trees",
        "samples",
    ],
    switches: &["asc"],
};

/// `rankfair compare`.
pub const COMPARE_SPEC: FlagSpec = FlagSpec {
    values: &[
        "csv",
        "sep",
        "rank-by",
        "attrs",
        "bucketize",
        "k",
        "tau",
        "lower",
        "alpha",
        "support",
    ],
    switches: &["asc"],
};

/// `rankfair demo`.
pub const DEMO_SPEC: FlagSpec = FlagSpec {
    values: &[],
    switches: &[],
};

/// `rankfair serve`.
pub const SERVE_SPEC: FlagSpec = FlagSpec {
    values: &["workers", "datasets"],
    switches: &["no-timing"],
};

/// `rankfair serve-net`.
pub const SERVE_NET_SPEC: FlagSpec = FlagSpec {
    values: &[
        "listen",
        "workers",
        "datasets",
        "max-conns",
        "window",
        "max-line-bytes",
        "idle-timeout",
    ],
    switches: &["no-timing"],
};

/// `rankfair monitor`.
pub const MONITOR_SPEC: FlagSpec = FlagSpec {
    values: &[
        "csv",
        "sep",
        "rank-by",
        "edits",
        "attrs",
        "task",
        "engine",
        "problem",
        "lower",
        "upper",
        "scope",
        "alpha",
        "tau",
        "kmin",
        "kmax",
        "top",
        "format",
        "checkpoint-every",
    ],
    switches: &["asc"],
};

/// Parsed `--flag value` / `--flag` pairs. A value flag may repeat:
/// [`Flags::get`] reads the last occurrence, [`Flags::list`] gathers
/// every occurrence (each comma-split), so `--listen a --listen b`
/// and `--listen a,b` are equivalent.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, Vec<String>>,
    switches: Vec<String>,
}

fn valid_set(spec: &FlagSpec) -> String {
    let mut all: Vec<String> = spec
        .values
        .iter()
        .chain(spec.switches.iter())
        .map(|f| format!("--{f}"))
        .collect();
    all.sort();
    all.join(", ")
}

/// Parses `--flag [value]` sequences against `spec`. Unknown flags are an
/// error listing the valid flag set.
pub fn parse_flags(argv: &[String], spec: &FlagSpec) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < argv.len() {
        let arg = &argv[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument `{arg}`"));
        };
        if spec.switches.contains(&name) {
            flags.switches.push(name.to_string());
        } else if spec.values.contains(&name) {
            i += 1;
            let value = argv
                .get(i)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags
                .values
                .entry(name.to_string())
                .or_default()
                .push(value.clone());
        } else {
            return Err(format!(
                "unknown flag `--{name}` for this command; valid flags: {}",
                valid_set(spec)
            ));
        }
        i += 1;
    }
    Ok(flags)
}

impl Flags {
    /// String flag (last occurrence wins).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// Parsed numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }

    /// Boolean switch.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Comma-separated list flag; repeated occurrences accumulate.
    pub fn list(&self, name: &str) -> Option<Vec<String>> {
        self.values.get(name).map(|vals| {
            vals.iter()
                .flat_map(|v| v.split(','))
                .map(|s| s.trim().to_string())
                .collect()
        })
    }
}

/// Parses `attr=value` pairs from `--group "a=v,b=w"`.
pub fn parse_group(spec: &str) -> Result<Vec<(String, String)>, String> {
    spec.split(',')
        .map(|term| {
            let (a, v) = term
                .split_once('=')
                .ok_or_else(|| format!("group term `{term}` must look like attr=value"))?;
            Ok((a.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

/// Parses `col=bins` pairs from `--bucketize "age=4,income=3"`.
pub fn parse_bucketize(spec: &str) -> Result<Vec<(String, usize)>, String> {
    spec.split(',')
        .map(|term| {
            let (c, b) = term
                .split_once('=')
                .ok_or_else(|| format!("bucketize term `{term}` must look like col=bins"))?;
            let bins: usize = b
                .trim()
                .parse()
                .map_err(|_| format!("bucketize `{term}`: `{b}` is not a number"))?;
            Ok((c.trim().to_string(), bins))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = parse_flags(
            &argv(&["--csv", "x.csv", "--asc", "--tau", "50"]),
            &DETECT_SPEC,
        )
        .unwrap();
        assert_eq!(f.get("csv"), Some("x.csv"));
        assert!(f.switch("asc"));
        assert!(!f.switch("baseline"));
        assert_eq!(f.num::<usize>("tau", 0).unwrap(), 50);
        assert_eq!(f.num::<usize>("kmin", 10).unwrap(), 10);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse_flags(&argv(&["--csv"]), &DETECT_SPEC).is_err());
        assert!(parse_flags(&argv(&["stray"]), &DETECT_SPEC).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected_with_valid_set() {
        let err = parse_flags(&argv(&["--frobnicate", "1"]), &DETECT_SPEC).unwrap_err();
        assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
        assert!(err.contains("--csv"), "{err}");
        assert!(err.contains("--task"), "{err}");
        // A detect-only flag is unknown to explain.
        let err = parse_flags(&argv(&["--engine", "baseline"]), &EXPLAIN_SPEC).unwrap_err();
        assert!(err.contains("unknown flag `--engine`"), "{err}");
        assert!(err.contains("--group"), "{err}");
        // demo takes nothing.
        assert!(parse_flags(&argv(&["--anything", "x"]), &DEMO_SPEC).is_err());
    }

    #[test]
    fn require_and_bad_number() {
        let f = parse_flags(&argv(&["--tau", "abc"]), &DETECT_SPEC).unwrap();
        assert!(f.require("csv").is_err());
        assert!(f.num::<usize>("tau", 0).is_err());
    }

    #[test]
    fn list_splits_on_commas() {
        let f = parse_flags(&argv(&["--attrs", "a, b,c"]), &DETECT_SPEC).unwrap();
        assert_eq!(f.list("attrs").unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn repeated_value_flags_accumulate_in_list_and_last_wins_in_get() {
        let f = parse_flags(
            &argv(&["--listen", "tcp:a:1", "--listen", "unix:/s,tcp:b:2"]),
            &SERVE_NET_SPEC,
        )
        .unwrap();
        assert_eq!(
            f.list("listen").unwrap(),
            vec!["tcp:a:1", "unix:/s", "tcp:b:2"]
        );
        assert_eq!(f.get("listen"), Some("unix:/s,tcp:b:2"));
    }

    #[test]
    fn group_spec_parses() {
        let g = parse_group("sex=F, address=R").unwrap();
        assert_eq!(g[0], ("sex".to_string(), "F".to_string()));
        assert_eq!(g[1], ("address".to_string(), "R".to_string()));
        assert!(parse_group("oops").is_err());
    }

    #[test]
    fn bucketize_spec_parses() {
        let b = parse_bucketize("age=4,income=3").unwrap();
        assert_eq!(b, vec![("age".to_string(), 4), ("income".to_string(), 3)]);
        assert!(parse_bucketize("age=four").is_err());
    }
}
