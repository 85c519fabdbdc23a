//! The one strict command-line parser every binary shares.
//!
//! A binary declares its flags as one spec that reads like a usage line,
//! `"--configs N --seed S --quick"`: a flag followed by a placeholder
//! takes a value, any other flag is a switch. Every argument must be a
//! flag of the spec, a valued flag takes the next argument (which may not
//! start with `--`), and a flag may be given at most once: a repeat is an
//! error, not a silent last-one-wins. Bad input never panics: parsing
//! and the typed reads on [`Flags`] return [`Error::Usage`], which
//! [`run`] prints with the spec and turns into exit code 2. Nothing here
//! exits the process.

use std::process::ExitCode;
use std::str::FromStr;

use crate::sweep::clamp_threads;

/// Why a binary stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Bad command-line input: exit 2 with the known flags.
    Usage(String),
    /// The run itself failed (an output it could not write, a check that
    /// did not pass): exit 1.
    Failed(String),
}

/// The flags given on one command line, checked against a spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
}

/// Whether `name` is a flag of `spec`, and if so whether it takes a value.
fn lookup(spec: &str, name: &str) -> Option<bool> {
    let mut tokens = spec.split_whitespace().peekable();
    while let Some(token) = tokens.next() {
        if token == name && name.starts_with("--") {
            return Some(tokens.peek().is_some_and(|t| !t.starts_with("--")));
        }
    }
    None
}

/// Parses `args` (argv after the program or subcommand name) against
/// `spec`, or returns [`Error::Usage`] for an argument that is not a flag
/// of `spec`, a valued flag without its value, a switch followed by a
/// value, or a flag given twice.
fn parse<I: IntoIterator<Item = String>>(spec: &str, args: I) -> Result<Flags, Error> {
    let mut flags = Flags::default();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let Some(valued) = lookup(spec, &arg) else {
            return Err(Error::Usage(match flags.given.last() {
                _ if arg.starts_with("--") => format!("unknown flag {arg}"),
                Some((name, None)) => format!("{name} takes no value (got {arg})"),
                _ => format!("unexpected argument {arg}"),
            }));
        };
        if flags.has(&arg) {
            return Err(Error::Usage(format!("{arg} given more than once")));
        }
        let value = match args.next_if(|v| valued && !v.starts_with("--")) {
            None if valued => return Err(Error::Usage(format!("{arg} requires a value"))),
            value => value,
        };
        flags.given.push((arg, value));
    }
    Ok(flags)
}

impl Flags {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The raw value of `name`, if given.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| n == name)?.1.as_deref()
    }

    /// The value of `name` parsed as `T`, `default` when absent, or
    /// [`Error::Usage`] when it does not parse.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, Error> {
        let Some(v) = self.str(name) else {
            return Ok(default);
        };
        v.parse()
            .map_err(|_| Error::Usage(format!("invalid value for {name}: {v}")))
    }

    /// A count that must be at least one (`--configs`, `--reps`), read
    /// like [`Flags::get`]; zero is an [`Error::Usage`].
    pub fn count(&self, name: &str, default: usize) -> Result<usize, Error> {
        match self.get(name, default)? {
            0 => Err(Error::Usage(format!("{name} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// `--threads` clamped to the machine by [`clamp_threads`] (absent, it
    /// means every core), printing the clamp's warning when a given value
    /// was adjusted; [`Error::Usage`] when it is not an integer.
    pub fn threads(&self) -> Result<usize, Error> {
        let plan = clamp_threads(self.get("--threads", 0)?);
        if self.has("--threads") {
            if let Some(warning) = &plan.warning {
                eprintln!("warning: {warning}");
            }
        }
        Ok(plan.threads)
    }
}

/// Parses `args` against `spec` and runs `body` on the flags. A usage
/// error prints `name: error` and the known flags and gives exit code 2;
/// a failed run prints `name: message` and gives 1.
pub fn run<I, F>(name: &str, spec: &str, args: I, body: F) -> ExitCode
where
    I: IntoIterator<Item = String>,
    F: FnOnce(&Flags) -> Result<(), Error>,
{
    match parse(spec, args).and_then(|flags| body(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(e)) => {
            eprintln!("{name}: {e}\nknown flags: {spec}");
            ExitCode::from(2)
        }
        Err(Error::Failed(e)) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `bytes` to the output file `path`, or returns
/// [`Error::Failed`] naming the path.
pub fn write_output(path: &str, bytes: &[u8]) -> Result<(), Error> {
    std::fs::write(path, bytes).map_err(|e| Error::Failed(format!("cannot write {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wadc_sim::rng::Rng64;

    const SPEC: &str = "--configs N --seed S --quick";

    fn parse_strs(args: &[&str]) -> Result<Flags, Error> {
        parse(SPEC, args.iter().map(|s| s.to_string()))
    }

    fn usage(message: &str) -> Result<Flags, Error> {
        Err(Error::Usage(message.into()))
    }

    #[test]
    fn valid_flags_parse_into_typed_values() {
        let flags = parse_strs(&["--seed", "7", "--quick", "--configs", "3"]).expect("valid");
        assert!(flags.has("--quick"));
        assert_eq!(flags.get("--seed", 1u64), Ok(7));
        assert_eq!(flags.count("--configs", 300), Ok(3));
        assert_eq!(flags.str("--json"), None);
        assert_eq!(
            flags.get("--json", 5u8),
            Ok(5),
            "absent flags take the default"
        );
        assert_eq!(parse_strs(&[]), Ok(Flags::default()));
    }

    #[test]
    fn unknown_flag_is_named() {
        assert_eq!(
            parse_strs(&["--cnfigs", "2"]),
            usage("unknown flag --cnfigs")
        );
        assert_eq!(parse_strs(&["stray"]), usage("unexpected argument stray"));
        // A placeholder of the spec is not a flag.
        assert_eq!(parse_strs(&["N"]), usage("unexpected argument N"));
    }

    #[test]
    fn valued_flag_without_its_value_is_rejected() {
        assert_eq!(
            parse_strs(&["--configs"]),
            usage("--configs requires a value")
        );
        // The next flag is not taken as the value.
        assert_eq!(
            parse_strs(&["--configs", "--quick"]),
            usage("--configs requires a value")
        );
    }

    #[test]
    fn non_numeric_value_is_rejected_on_read() {
        let flags = parse_strs(&["--configs", "x", "--seed", "-1"]).expect("syntax is fine");
        let invalid = |m: &str| Error::Usage(format!("invalid value for {m}"));
        assert_eq!(flags.count("--configs", 300), Err(invalid("--configs: x")));
        assert_eq!(flags.get("--seed", 0u64), Err(invalid("--seed: -1")));
    }

    #[test]
    fn switch_given_a_value_is_rejected() {
        assert_eq!(
            parse_strs(&["--quick", "3"]),
            usage("--quick takes no value (got 3)")
        );
    }

    #[test]
    fn repeated_flag_is_rejected() {
        assert_eq!(
            parse_strs(&["--seed", "1", "--seed", "2"]),
            usage("--seed given more than once")
        );
        assert_eq!(
            parse_strs(&["--quick", "--quick"]),
            usage("--quick given more than once")
        );
    }

    #[test]
    fn zero_count_is_rejected() {
        let flags = parse_strs(&["--configs", "0"]).expect("syntax is fine");
        assert_eq!(
            flags.count("--configs", 300),
            Err(Error::Usage("--configs must be at least 1".into()))
        );
        assert_eq!(
            flags.get("--configs", 300usize),
            Ok(0),
            "plain reads allow 0"
        );
    }

    #[test]
    fn errors_map_to_exit_codes() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = run("t", SPEC, args(&["--quick"]), |f| {
            assert!(f.has("--quick"));
            Ok(())
        });
        assert_eq!(ok, ExitCode::SUCCESS);
        let bad = run("t", SPEC, args(&["--bogus"]), |_| {
            unreachable!("not parsed")
        });
        assert_eq!(bad, ExitCode::from(2));
        let zero = run("t", SPEC, args(&["--configs", "0"]), |f| {
            f.count("--configs", 1).map(drop)
        });
        assert_eq!(zero, ExitCode::from(2));
        let failed = run("t", SPEC, args(&[]), |_| Err(Error::Failed("gate".into())));
        assert_eq!(failed, ExitCode::FAILURE);
    }

    #[test]
    fn random_argv_never_panics() {
        const TOKENS: [&str; 11] = [
            "--configs",
            "--seed",
            "--quick",
            "N",
            "",
            "-",
            "--",
            "-1",
            "x",
            "0",
            "--seed=3",
        ];
        let mut rng = Rng64::seed_from_u64(15);
        for _ in 0..5_000 {
            let args: Vec<String> = (0..rng.range_usize(7))
                .map(|_| match rng.range_usize(4) {
                    0 => rng.range_u64(0, 1 << 40).to_string(),
                    _ => TOKENS[rng.range_usize(TOKENS.len())].to_string(),
                })
                .collect();
            match parse(SPEC, args.clone()) {
                Ok(flags) => {
                    // Every flag given was parsed, once.
                    for flag in ["--configs", "--seed", "--quick"] {
                        let given = args.iter().filter(|a| *a == flag).count();
                        assert_eq!(flags.has(flag), given == 1, "{args:?}");
                    }
                    // Typed reads return, whatever the values were.
                    let _ = flags.count("--configs", 1);
                    let _ = flags.get("--seed", 0u64);
                }
                Err(e) => assert!(matches!(e, Error::Usage(_)), "{args:?}: {e:?}"),
            }
        }
    }
}
