//! Constant shell languages: the constraints the engine gives values
//! it cannot know (`$0`, the initial working directory, `$?`, `$$`,
//! `$((…))`, …). Each is parsed once per process; a fresh symbol takes
//! a clone, which is a refcount bump.

use shoal_relang::Regex;
use std::sync::LazyLock;

/// An absolute path: `/` or `/`-separated non-empty components
/// (`$PWD`, `$HOME`, `realpath` output).
pub(crate) static ABSOLUTE_PATH: LazyLock<Regex> =
    LazyLock::new(|| Regex::parse_must(r"/([^/\n]+(/[^/\n]+)*)?"));
/// An absolute path other than `/`.
pub(crate) static NON_ROOT_PATH: LazyLock<Regex> =
    LazyLock::new(|| Regex::parse_must(r"/[^/\n]+(/[^/\n]+)*"));
/// A script's invocation name (`$0`): a relative or absolute path with
/// a non-empty last component.
pub(crate) static SCRIPT_NAME: LazyLock<Regex> =
    LazyLock::new(|| Regex::parse_must("/?([^/\n]+/)*[^/\n]+"));
/// A non-negative decimal (`$$`, `$!`, `${#x}`, an unknown `$?`).
pub(crate) static DECIMAL: LazyLock<Regex> = LazyLock::new(|| Regex::parse_must("[0-9]+"));
/// A positive decimal (a failed command's `$?`).
pub(crate) static NONZERO_DECIMAL: LazyLock<Regex> =
    LazyLock::new(|| Regex::parse_must("[1-9][0-9]*"));
/// A decimal with an optional sign (`$((…))`).
pub(crate) static INTEGER: LazyLock<Regex> = LazyLock::new(|| Regex::parse_must("-?[0-9]+"));
/// Option letters (`$-`).
pub(crate) static OPTION_LETTERS: LazyLock<Regex> = LazyLock::new(|| Regex::parse_must("[a-z]*"));
