//! The command-line parser shared by the bench binaries (`figure6`,
//! `adequacy`, `fuzz_driver` and `diaframe`).
//!
//! Every argument must be a known flag: a *switch* stands alone, an
//! *option* takes the next argument as its value. An unknown flag, an
//! option with no value, an operand where none is accepted, or a value
//! that does not parse prints the problem and the binary's usage text to
//! standard error and exits with status 2, so a typo never silently runs
//! the default configuration.

use std::str::FromStr;

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    switches: Vec<&'static str>,
    options: Vec<(&'static str, String)>,
    /// The arguments that are not flags, in order (only with
    /// [`Args::parse_with_operands`]).
    pub operands: Vec<String>,
}

impl Args {
    /// Parses `args` (without the program name) against the known
    /// `switches` and `options`. Any operand is a usage error.
    #[must_use]
    pub fn parse(
        args: &[String],
        switches: &[&'static str],
        options: &[&'static str],
        usage: &'static str,
    ) -> Args {
        let parsed = Args::parse_with_operands(args, switches, options, usage);
        if let Some(operand) = parsed.operands.first() {
            parsed.fail(&format!("unexpected argument {operand:?}"));
        }
        parsed
    }

    /// Like [`Args::parse`], but collects the arguments that do not start
    /// with `-` into [`Args::operands`].
    #[must_use]
    pub fn parse_with_operands(
        args: &[String],
        switches: &[&'static str],
        options: &[&'static str],
        usage: &'static str,
    ) -> Args {
        let mut parsed = Args {
            usage,
            switches: Vec::new(),
            options: Vec::new(),
            operands: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if let Some(&switch) = switches.iter().find(|s| **s == arg) {
                parsed.switches.push(switch);
            } else if let Some(&option) = options.iter().find(|o| **o == arg) {
                match rest.next() {
                    Some(value) if !value.starts_with("--") => parsed.options.push((option, value.clone())),
                    _ => parsed.fail(&format!("{option} needs a value")),
                }
            } else if arg.starts_with('-') {
                parsed.fail(&format!("unknown flag {arg:?}"));
            } else {
                parsed.operands.push(arg.clone());
            }
        }
        parsed
    }

    /// Whether switch `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of option `flag` (its first occurrence), if given.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.options.iter().find(|(o, _)| *o == flag).map(|(_, v)| v.as_str())
    }

    /// The value of option `flag` converted by `parse`, if given. Exits 2
    /// when `parse` rejects it.
    pub fn value_with<T>(&self, flag: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let value = self.value(flag)?;
        Some(parse(value).unwrap_or_else(|| self.fail(&format!("bad value {value:?} for {flag}"))))
    }

    /// The value of option `flag` parsed as a `T` (a count, a byte
    /// budget), if given. Exits 2 when it does not parse.
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value_with(flag, |v| v.parse().ok())
    }

    /// Prints `problem` and the usage text to standard error and exits
    /// with status 2.
    pub fn fail(&self, problem: &str) -> ! {
        eprintln!("error: {problem}\n{}", self.usage);
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn switches_options_and_operands() {
        let args = Args::parse_with_operands(
            &strings(&["verify", "--all", "--jobs", "3", "a", "--jobs", "9"]),
            &["--all", "--json"],
            &["--jobs", "--store"],
            "usage",
        );
        assert!(args.has("--all") && !args.has("--json"));
        assert_eq!(args.number::<usize>("--jobs"), Some(3));
        assert_eq!(args.value("--store"), None);
        assert_eq!(args.operands, ["verify", "a"]);
        let hex = Args::parse(&strings(&["--seed", "0x10"]), &[], &["--seed"], "usage");
        let seed = hex.value_with("--seed", |v| u64::from_str_radix(v.strip_prefix("0x")?, 16).ok());
        assert_eq!(seed, Some(16));
    }
}
