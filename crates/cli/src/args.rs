//! The `idasim` argument scanner.
//!
//! Each flag is declared once below: its spelling and, for a flag that
//! takes values, what they are (for `"{flag} needs {what}"`). Each
//! subcommand lists in [`COMMANDS`] the positionals and flags it accepts,
//! and [`scan`] does all the structural checking against that entry:
//! unknown options, missing values, values or positionals that start with
//! `--`, and extra arguments. The typed getters on [`Args`] parse values
//! with the uniform `"bad {label}: {e}"` phrasing and own the checks
//! several subcommands share (`--jobs`, `--requests`, `--error-rate`,
//! `--trace-filter`).

use ida_sweep::pool::parse_jobs;

/// One command-line flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// Spelling, e.g. `--jobs`.
    pub name: &'static str,
    /// Values the flag consumes (0 for a switch).
    pub arity: usize,
    /// What the values are, for `"{name} needs {what}"`.
    pub what: &'static str,
}

const fn flag(name: &'static str, arity: usize, what: &'static str) -> Flag {
    Flag { name, arity, what }
}

// Every flag `idasim` accepts, alphabetically; arity 0 is a switch.
pub const ADMISSION: Flag = flag("--admission", 1, "a policy");
pub const ARRIVAL: Flag = flag("--arrival", 1, "a shape");
pub const BASELINE: Flag = flag("--baseline", 1, "a path");
pub const CAPACITY: Flag = flag("--capacity", 0, "");
pub const CLOSED: Flag = flag("--closed", 1, "a queue depth");
pub const CONNECT: Flag = flag("--connect", 1, "an address");
pub const DIFF: Flag = flag("--diff", 2, "two trace paths");
pub const EPOCHS: Flag = flag("--epochs", 1, "a value");
pub const ERROR_RATE: Flag = flag("--error-rate", 1, "a value");
pub const HI: Flag = flag("--hi", 1, "a value");
pub const IOPS: Flag = flag("--iops", 1, "a value");
pub const JOBS: Flag = flag("--jobs", 1, "a value");
pub const JOURNAL: Flag = flag("--journal", 1, "a path");
pub const LEVEL: Flag = flag("--level", 1, "a value");
pub const LISTEN: Flag = flag("--listen", 1, "an address");
pub const LO: Flag = flag("--lo", 1, "a value");
pub const METRICS_JSON: Flag = flag("--metrics-json", 1, "a path");
pub const MSR: Flag = flag("--msr", 1, "a path");
pub const OUT: Flag = flag("--out", 1, "a path");
pub const PROGRESS: Flag = flag("--progress", 0, "");
pub const REQUESTS: Flag = flag("--requests", 1, "a value");
pub const SEED: Flag = flag("--seed", 1, "a value");
pub const SLO_US: Flag = flag("--slo-us", 1, "a value");
pub const SMOKE: Flag = flag("--smoke", 0, "");
pub const SYSTEM: Flag = flag("--system", 1, "a name");
pub const TENANTS: Flag = flag("--tenants", 1, "a count");
pub const TOP: Flag = flag("--top", 1, "a count");
pub const TRACE_FILTER: Flag = flag("--trace-filter", 1, "a class list");
pub const TRACE_OUT: Flag = flag("--trace-out", 1, "a path");
pub const VALIDATE: Flag = flag("--validate", 0, "");
pub const WARM_CACHE: Flag = flag("--warm-cache", 0, "");
pub const WORKLOAD: Flag = flag("--workload", 1, "a name");

/// A positional argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pos {
    /// A paper workload name, e.g. `hm_1`.
    Workload,
    /// A built-in sweep grid name.
    Grid,
    /// A single-configuration paper experiment name.
    Experiment,
    /// A snapshot action: `save`, `restore` or `inspect`.
    Action,
    /// A snapshot file path.
    File,
    /// An optional trace file, accepted anywhere among the flags.
    TraceFile,
}

impl Pos {
    /// Whether `arg` can fill this positional.
    fn accepts(self, arg: &str) -> bool {
        match self {
            Pos::Action => matches!(arg, "save" | "restore" | "inspect"),
            _ => !arg.starts_with("--"),
        }
    }

    /// The error when subcommand `cmd` lacks this (required) positional.
    fn missing(self, cmd: &str) -> String {
        match self {
            Pos::Workload => format!("{cmd} needs a workload name (try `idasim list`)"),
            Pos::Grid => format!("{cmd} needs a grid name (one of: {})", crate::grid_names()),
            Pos::Experiment => format!(
                "{cmd} needs an experiment name (one of: {})",
                crate::experiment_names()
            ),
            Pos::Action => format!("{cmd} needs an action: save, restore, or inspect"),
            Pos::File => format!("{cmd} needs a file path after the action"),
            Pos::TraceFile => unreachable!("the trace file is optional"),
        }
    }
}

/// A subcommand: its name, the positionals it takes (required ones
/// first, leading the flags) and the flags it accepts.
#[derive(Debug)]
pub struct Cmd {
    /// Subcommand name, e.g. `sweep`.
    pub name: &'static str,
    /// Positionals, in order.
    pub positionals: &'static [Pos],
    /// Accepted flags.
    pub flags: &'static [Flag],
}

const fn cmd(name: &'static str, positionals: &'static [Pos], flags: &'static [Flag]) -> Cmd {
    Cmd {
        name,
        positionals,
        flags,
    }
}

/// Every subcommand [`crate::parse_args`] accepts.
#[rustfmt::skip]
pub const COMMANDS: &[Cmd] = &[
    cmd("list", &[], &[]),
    cmd("describe", &[Pos::Workload], &[]),
    cmd("compare", &[Pos::Workload],
        &[ERROR_RATE, REQUESTS, TRACE_OUT, METRICS_JSON, TRACE_FILTER, PROGRESS]),
    cmd("sweep", &[Pos::Grid], &[JOBS, JOURNAL, OUT, SMOKE, REQUESTS, PROGRESS, WARM_CACHE]),
    cmd("paper", &[Pos::Experiment], &[]),
    cmd("serve", &[Pos::Grid], &[LISTEN, JOURNAL, OUT, SMOKE, REQUESTS]),
    cmd("worker", &[], &[CONNECT, JOBS]),
    cmd("snapshot", &[Pos::Action, Pos::File], &[WORKLOAD, SYSTEM, SMOKE, REQUESTS]),
    cmd("soak", &[Pos::Workload],
        &[LEVEL, EPOCHS, ERROR_RATE, JOBS, JOURNAL, OUT, SMOKE, REQUESTS, PROGRESS]),
    cmd("bench", &[], &[SMOKE, OUT, BASELINE]),
    cmd("load", &[Pos::Workload],
        &[IOPS, ARRIVAL, TENANTS, ADMISSION, SLO_US, CAPACITY, LO, HI, ERROR_RATE, REQUESTS,
          SMOKE, SEED, OUT, TRACE_OUT, TRACE_FILTER]),
    cmd("replay", &[], &[MSR, CLOSED, ERROR_RATE, SMOKE, TRACE_OUT, METRICS_JSON, PROGRESS]),
    cmd("trace", &[Pos::TraceFile], &[VALIDATE, TOP, DIFF]),
];

/// Check `args` (everything after the subcommand name) against `cmd`:
/// its required positionals lead, then its flags (and its optional
/// positional) follow in any order. An extra argument is an `"unknown
/// option"`, or an `"unexpected argument"` for a subcommand without flags.
pub fn scan<'a>(cmd: &'a Cmd, args: &'a [String]) -> Result<Args<'a>, String> {
    let mut a = Args {
        cmd,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = args;
    let mut optional = false;
    for &pos in cmd.positionals {
        if pos == Pos::TraceFile {
            optional = true;
            continue;
        }
        match rest.split_first() {
            Some((arg, tail)) if pos.accepts(arg) => {
                a.positionals.push(arg);
                rest = tail;
            }
            _ => return Err(pos.missing(cmd.name)),
        }
    }
    while let Some((arg, tail)) = rest.split_first() {
        rest = tail;
        if let Some(&flag) = cmd.flags.iter().find(|f| f.name == arg) {
            let values = rest
                .get(..flag.arity)
                .filter(|vs| vs.iter().all(|v| !v.starts_with("--")))
                .ok_or_else(|| format!("{} needs {}", flag.name, flag.what))?;
            a.given.push((flag, values));
            rest = &rest[flag.arity..];
        } else if optional && Pos::TraceFile.accepts(arg) {
            optional = false;
            a.positionals.push(arg);
        } else if cmd.flags.is_empty() {
            return Err(format!("unexpected argument: {arg}"));
        } else {
            return Err(format!("unknown option: {arg}"));
        }
    }
    Ok(a)
}

/// A command line [`scan`] accepted: its positionals and the flags given,
/// in order.
#[derive(Debug)]
pub struct Args<'a> {
    cmd: &'a Cmd,
    positionals: Vec<&'a str>,
    given: Vec<(Flag, &'a [String])>,
}

impl<'a> Args<'a> {
    /// The `i`th positional, if given.
    pub fn positional(&self, i: usize) -> Option<&'a str> {
        self.positionals.get(i).copied()
    }

    /// The `i`th positional, which the subcommand requires (so [`scan`]
    /// guarantees it).
    pub fn required(&self, i: usize) -> String {
        self.positionals[i].to_string()
    }

    fn occurrences(&self, flag: Flag) -> impl Iterator<Item = &'a [String]> + '_ {
        debug_assert!(self.cmd.flags.contains(&flag), "{} not accepted", flag.name);
        self.given
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|&(_, values)| values)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: Flag) -> bool {
        self.occurrences(flag).next().is_some()
    }

    /// The values of the last `flag` given.
    pub fn values(&self, flag: Flag) -> Option<&'a [String]> {
        self.occurrences(flag).last()
    }

    /// The value of the last `flag` given, as a `String` or a `PathBuf`.
    pub fn value<T: for<'s> From<&'s str>>(&self, flag: Flag) -> Option<T> {
        self.values(flag).map(|v| T::from(&v[0]))
    }

    /// The value of the last `flag` given, else `default`.
    pub fn value_or(&self, flag: Flag, default: &str) -> String {
        self.value(flag).unwrap_or_else(|| default.to_string())
    }

    /// `check` applied to every occurrence of `flag`, in order: the first
    /// error is returned, else the last result.
    pub fn checked<T>(
        &self,
        flag: Flag,
        check: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.occurrences(flag)
            .try_fold(None, |_, v| check(&v[0]).map(Some))
    }

    /// The value of `flag` parsed as a `T`; a malformed one reports
    /// `"bad {label}: {e}"`.
    pub fn parsed<T: std::str::FromStr>(&self, flag: Flag, label: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.checked(flag, |v| v.parse().map_err(|e| format!("bad {label}: {e}")))
    }

    /// `--jobs`: a positive worker count, checked by [`parse_jobs`].
    pub fn jobs(&self) -> Result<Option<usize>, String> {
        self.checked(JOBS, parse_jobs)
    }

    /// `--requests`: the measured request count.
    pub fn requests(&self) -> Result<Option<usize>, String> {
        self.parsed(REQUESTS, "request count")
    }

    /// `--error-rate`: the IDA voltage-adjustment error rate, default 0.2,
    /// in [0, 1].
    pub fn error_rate(&self) -> Result<f64, String> {
        let rate = self.parsed(ERROR_RATE, "error rate")?.unwrap_or(0.2);
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("error rate {rate} outside [0, 1]"));
        }
        Ok(rate)
    }

    /// `--trace-filter`: a comma-separated event class list, validated
    /// now so a typo fails before any run.
    pub fn trace_filter(&self) -> Result<Option<String>, String> {
        self.checked(TRACE_FILTER, |v| {
            ida_obs::trace::parse_trace_filter(v).map(|_| v.to_string())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    const ALL: Cmd = cmd("test", &[], &[JOBS, JOURNAL, OUT, REQUESTS, SEED, SMOKE]);

    #[test]
    fn take_consumes_only_accepted_flags() {
        const SOME: Cmd = cmd("test", &[], &[JOBS, SMOKE]);
        let args = s(&["--jobs", "4", "--smoke", "--seed", "7"]);
        // --seed is not accepted here.
        assert_eq!(scan(&SOME, &args).unwrap_err(), "unknown option: --seed");
        let a = scan(&SOME, &args[..3]).unwrap();
        assert_eq!(a.jobs().unwrap(), Some(4));
        assert!(a.switch(SMOKE));
    }

    #[test]
    fn missing_values_use_the_uniform_phrasing() {
        for (args, msg) in [
            (s(&["--jobs"]), "--jobs needs a value"),
            (s(&["--journal"]), "--journal needs a path"),
            (s(&["--out"]), "--out needs a path"),
            (s(&["--requests"]), "--requests needs a value"),
            (s(&["--seed"]), "--seed needs a value"),
            // A flag is never taken as another flag's value.
            (s(&["--out", "--smoke"]), "--out needs a path"),
        ] {
            assert_eq!(scan(&ALL, &args).unwrap_err(), msg);
        }
    }

    #[test]
    fn malformed_values_keep_their_pinned_messages() {
        let zero = scan(&ALL, &s(&["--jobs", "0"]))
            .unwrap()
            .jobs()
            .unwrap_err();
        assert!(zero.contains("at least 1"), "unhelpful: {zero}");
        let word = scan(&ALL, &s(&["--jobs", "four"]))
            .unwrap()
            .jobs()
            .unwrap_err();
        assert!(word.contains("positive integer"), "unhelpful: {word}");
        let req = scan(&ALL, &s(&["--requests", "many"]))
            .unwrap()
            .requests()
            .unwrap_err();
        assert!(req.contains("bad request count"), "unhelpful: {req}");
        let seed = scan(&ALL, &s(&["--seed", "x"]))
            .unwrap()
            .parsed::<u64>(SEED, "seed")
            .unwrap_err();
        assert!(seed.contains("bad seed"), "unhelpful: {seed}");
        // Every occurrence is checked; the last valid one wins.
        let jobs = |v: &[&str]| scan(&ALL, &s(v)).unwrap().jobs();
        assert!(jobs(&["--jobs", "0", "--jobs", "2"]).is_err());
        assert_eq!(jobs(&["--jobs", "3", "--jobs", "2"]).unwrap(), Some(2));
    }

    #[test]
    fn parsed_helper_reports_both_failure_shapes() {
        const SOAK: Cmd = cmd("soak", &[], &[EPOCHS]);
        assert_eq!(
            scan(&SOAK, &s(&["--epochs"])).unwrap_err(),
            "--epochs needs a value"
        );
        let err = scan(&SOAK, &s(&["--epochs", "soon"]))
            .unwrap()
            .parsed::<u64>(EPOCHS, "epoch count")
            .unwrap_err();
        assert!(err.starts_with("bad epoch count:"), "unhelpful: {err}");
    }

    #[test]
    fn positionals_lead_and_extras_are_rejected() {
        const TWO: Cmd = cmd("snapshot", &[Pos::Action, Pos::File], &[SMOKE]);
        const NONE: Cmd = cmd("list", &[], &[]);
        const TRACE: Cmd = cmd("trace", &[Pos::TraceFile], &[VALIDATE]);
        let args = s(&["save", "w.snap", "--smoke"]);
        let a = scan(&TWO, &args).unwrap();
        assert_eq!(
            (a.required(0), a.required(1)),
            ("save".into(), "w.snap".into())
        );
        assert_eq!(
            scan(&TWO, &s(&["dump", "w.snap"])).unwrap_err(),
            "snapshot needs an action: save, restore, or inspect"
        );
        assert_eq!(
            scan(&TWO, &s(&["save", "--smoke"])).unwrap_err(),
            "snapshot needs a file path after the action"
        );
        assert_eq!(
            scan(&TWO, &s(&["save", "w.snap", "more"])).unwrap_err(),
            "unknown option: more"
        );
        assert_eq!(
            scan(&NONE, &s(&["--smoke"])).unwrap_err(),
            "unexpected argument: --smoke"
        );
        // The optional trace file may come anywhere, once.
        let args = s(&["--validate", "t.jsonl"]);
        assert_eq!(scan(&TRACE, &args).unwrap().positional(0), Some("t.jsonl"));
        assert!(scan(&TRACE, &s(&["--validate"]))
            .unwrap()
            .positional(0)
            .is_none());
        assert!(scan(&TRACE, &s(&["a.jsonl", "b.jsonl"])).is_err());
    }
}
