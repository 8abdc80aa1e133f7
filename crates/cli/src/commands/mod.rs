//! Subcommand implementations.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::args::CliError;

pub mod bench_load;
pub mod estimate;
pub mod obs_dump;
pub mod pagerank;
pub mod serve;
pub mod simulate;
pub mod trace;
pub mod wal;

/// Send one request line to a running `qrank serve` and read its answer.
/// A first line that opens a JSON object is the whole answer — every
/// single-line verb, and every error, answers that way; anything else
/// (`metrics`, `trace report`) is read up to its `# EOF` terminator,
/// which is not returned. Trailing whitespace is trimmed.
pub(crate) fn fetch(addr: &str, request: &str) -> Result<String, CliError> {
    let stream = TcpStream::connect(addr).map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| CliError::Runtime(e.to_string()))?,
    );
    let mut writer = stream;
    writer.write_all(request.as_bytes())?;
    writer.write_all(b"\n")?;
    let mut text = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(CliError::Runtime(format!(
                "{addr}: connection closed mid-response"
            )));
        }
        if line.trim_end() == "# EOF" {
            break;
        }
        let whole = text.is_empty() && line.starts_with('{');
        text.push_str(&line);
        if whole {
            break;
        }
    }
    Ok(text.trim_end().to_string())
}
