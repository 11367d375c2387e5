//! Dependency-free `--key value` argument parsing.

use crate::CliError;

/// The flags one subcommand reads, declared once: `--key value` flags
/// and bare `--switch`es. [`Args::parse`] rejects any other `--name`.
#[derive(Debug)]
pub(crate) struct Flags {
    pub values: &'static [&'static str],
    pub switches: &'static [&'static str],
}

impl Flags {
    /// A subcommand that takes positionals only.
    pub(crate) const NONE: Flags = Flags {
        values: &[],
        switches: &[],
    };
}

/// Parsed positional arguments and flags.
#[derive(Debug)]
pub(crate) struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
    /// Flags present without a value (e.g. `--model`).
    switches: Vec<String>,
    declared: &'static Flags,
}

impl Args {
    /// Parses `argv` against the subcommand's `declared` flags:
    /// positionals anywhere, `--key value` for a declared value flag, a
    /// bare `--switch` for a declared switch (which never takes the next
    /// word, so `--resume in.f64` leaves `in.f64` positional).
    ///
    /// # Errors
    /// An undeclared `--name`, or a value flag with no value after it.
    pub(crate) fn parse(argv: &[String], declared: &'static Flags) -> Result<Self, CliError> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            switches: Vec::new(),
            declared,
        };
        let mut words = argv.iter();
        while let Some(a) = words.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.positional.push(a.clone());
                continue;
            };
            if declared.switches.contains(&key) {
                args.switches.push(key.to_string());
            } else if declared.values.contains(&key) {
                match words.next() {
                    Some(v) if !v.starts_with("--") => {
                        args.flags.push((key.to_string(), v.clone()))
                    }
                    _ => return Err(CliError::new(format!("--{key} needs a value"))),
                }
            } else {
                return Err(CliError::new(format!("unknown flag `--{key}`")));
            }
        }
        Ok(args)
    }

    /// A command may only read what it declared: a typo here would
    /// otherwise read as "flag never given".
    fn check_declared(&self, key: &str) {
        debug_assert!(
            self.declared.values.contains(&key) || self.declared.switches.contains(&key),
            "undeclared flag --{key}"
        );
    }

    /// Positional argument `idx` or an error naming it.
    pub(crate) fn positional(&self, idx: usize, name: &str) -> Result<&str, CliError> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| CliError::new(format!("missing <{name}> argument")))
    }

    /// String flag value.
    #[must_use]
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.check_declared(key);
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable flag, in order (e.g.
    /// `--replica a --replica b`).
    #[must_use]
    pub(crate) fn get_all(&self, key: &str) -> Vec<&str> {
        self.check_declared(key);
        self.flags
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Boolean switch presence.
    #[must_use]
    pub(crate) fn switch(&self, key: &str) -> bool {
        self.check_declared(key);
        self.switches.iter().any(|k| k == key)
    }

    /// Parsed numeric flag with default.
    pub(crate) fn get_f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::new(format!("--{key}: `{v}` is not a number"))),
        }
    }

    /// Parsed integer flag with default.
    pub(crate) fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::new(format!("--{key}: `{v}` is not an integer"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Flags = Flags {
        values: &["eb", "blocks", "missing"],
        switches: &["model"],
    };

    fn try_parse(words: &[&str]) -> Result<Args, CliError> {
        let v: Vec<String> = words.iter().map(|s| (*s).to_string()).collect();
        Args::parse(&v, &TEST)
    }

    fn parse(words: &[&str]) -> Args {
        try_parse(words).unwrap()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let a = parse(&["in.f64", "--eb", "1e-9", "out.bin", "--model"]);
        assert_eq!(a.positional, vec!["in.f64", "out.bin"]);
        assert_eq!(a.get("eb"), Some("1e-9"));
        assert!(a.switch("model"));
        assert!(!a.switch("eb"));
    }

    #[test]
    fn last_flag_wins() {
        let a = parse(&["--eb", "1", "--eb", "2"]);
        assert_eq!(a.get("eb"), Some("2"));
    }

    #[test]
    fn numeric_parsing() {
        let a = parse(&["--eb", "1e-10", "--blocks", "42"]);
        assert_eq!(a.get_f64("eb", 0.0).unwrap(), 1e-10);
        assert_eq!(a.get_usize("blocks", 0).unwrap(), 42);
        assert_eq!(a.get_f64("missing", 7.5).unwrap(), 7.5);
        let bad = try_parse(&["--eb", "--model"]).unwrap_err(); // eb has no value
        assert!(bad.message.contains("--eb"), "{}", bad.message);
    }

    #[test]
    fn undeclared_flag_is_rejected_by_name() {
        let err = try_parse(&["in.f64", "--shards", "4"]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("--shards"), "{}", err.message);
    }

    #[test]
    fn a_switch_never_swallows_the_next_word() {
        let a = parse(&["--model", "in.f64", "out.bin"]);
        assert!(a.switch("model"));
        assert_eq!(a.positional, vec!["in.f64", "out.bin"]);
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse(&["--eb", "abc"]);
        assert!(a.get_f64("eb", 0.0).is_err());
    }

    #[test]
    fn missing_positional_reports_name() {
        let a = parse(&["only-one"]);
        let err = a.positional(1, "output").unwrap_err();
        assert!(err.message.contains("output"));
    }
}
