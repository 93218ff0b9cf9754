//! Offline stand-in for `serde_json`, used only by the `benchmark/`
//! workspace. Compile-only: every entry point returns [`Error`], so a
//! benchmark path that wandered onto serde would fail its oracle
//! instead of silently measuring nothing.

use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error(());

impl Error {
    fn unavailable() -> Error {
        Error(())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is an offline stand-in in the benchmark build; (de)serialisation is unavailable")
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::Unsupported, e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error::unavailable())
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error::unavailable())
}

pub fn to_writer<W: std::io::Write, T: ?Sized>(_writer: W, _value: &T) -> Result<()> {
    Err(Error::unavailable())
}

pub fn from_str<T>(_s: &str) -> Result<T> {
    Err(Error::unavailable())
}
