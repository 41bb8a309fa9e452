//! Minimal argument parsing for `pt`: positionals plus each command's
//! declared `--key value` options and boolean flags, with typed
//! accessors.

use std::collections::HashMap;

/// Parsed arguments: positionals in order plus named options.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    options: HashMap<String, Vec<String>>,
    flags: Vec<String>,
}

/// Error with a user-facing message.
pub type CliError = Box<dyn std::error::Error>;

/// Parse `argv`. `value_opts` lists options that consume a value and
/// `flag_opts` the boolean flags; any other `--option` is an error, so
/// a typo never reaches the store.
pub fn parse(argv: &[String], value_opts: &[&str], flag_opts: &[&str]) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if value_opts.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                args.options
                    .entry(name.to_string())
                    .or_default()
                    .push(value.clone());
            } else if flag_opts.contains(&name) {
                args.flags.push(name.to_string());
            } else {
                return Err(format!("unknown option --{name}").into());
            }
        } else {
            args.positional.push(a.clone());
        }
    }
    Ok(args)
}

impl Args {
    /// Single value of an option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options
            .get(name)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// All values of a repeatable option.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.options
            .get(name)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Boolean flag presence.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parse an option as a number, with a default.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            Some(s) => s
                .parse()
                .map_err(|_| format!("--{name}: invalid number {s:?}").into()),
            None => Ok(default),
        }
    }

    /// Required positional at `idx` with a description for errors.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, CliError> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}").into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positionals_options_flags() {
        let a = parse(
            &argv(&[
                "store", "--name", "Frost", "--name", "MCR", "--csv", "extra",
            ]),
            &["name"],
            &["csv", "json"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["store", "extra"]);
        assert_eq!(a.get("name"), Some("Frost"));
        assert_eq!(a.get_all("name"), vec!["Frost", "MCR"]);
        assert!(a.has_flag("csv"));
        assert!(!a.has_flag("json"));
        assert_eq!(a.positional(0, "store dir").unwrap(), "store");
        assert!(a.positional(5, "missing thing").is_err());
    }

    #[test]
    fn numeric_options() {
        let a = parse(&argv(&["--execs", "62"]), &["execs"], &[]).unwrap();
        assert_eq!(a.get_num("execs", 0usize).unwrap(), 62);
        assert_eq!(a.get_num("seed", 7u64).unwrap(), 7, "default used");
        let a = parse(&argv(&["--execs", "NaNope"]), &["execs"], &[]).unwrap();
        assert!(a.get_num::<usize>("execs", 0).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--name"]), &["name"], &[]).is_err());
    }
}
