//! Shared plumbing for the figure-reproduction binaries.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

pub mod figures;
mod twopl;

/// Where figure outputs land (`results/` at the workspace root, or
/// `TANGO_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("TANGO_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
    let path = PathBuf::from(dir);
    let _ = fs::create_dir_all(&path);
    path
}

/// Writes CSV rows (also echoed to stdout) for one figure.
pub struct FigureOutput {
    name: String,
    lines: Vec<String>,
}

impl FigureOutput {
    /// Starts a figure output with a CSV header.
    pub fn new(name: &str, header: &str) -> Self {
        println!("# {name}");
        println!("{header}");
        Self { name: name.to_owned(), lines: vec![header.to_owned()] }
    }

    /// Adds one row.
    pub fn row(&mut self, row: String) {
        println!("{row}");
        self.lines.push(row);
    }

    /// Writes the collected rows to `results/<name>.csv`.
    pub fn save(&self) {
        let path = results_dir().join(format!("{}.csv", self.name));
        match fs::File::create(&path) {
            Ok(mut f) => {
                for line in &self.lines {
                    let _ = writeln!(f, "{line}");
                }
                eprintln!("wrote {}", path.display());
            }
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Quick-mode scaling: figure binaries honour `TANGO_QUICK=1` to run
/// abbreviated sweeps (used by CI-ish checks).
pub fn quick() -> bool {
    std::env::var("TANGO_QUICK").map(|v| v == "1").unwrap_or(false)
}
