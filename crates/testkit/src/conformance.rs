//! The gadget conformance runner: every zoo fixture, at every swept size,
//! through the mock checker.

use crate::fixtures::{compile_case, GadgetCase};

/// Result of one (case, size) conformance run.
pub struct ConformanceReport {
    /// Case name.
    pub name: &'static str,
    /// Column count it ran at.
    pub num_cols: usize,
    /// Grid height (log2) of the compiled circuit.
    pub k: u32,
    /// Failure descriptions; empty means the case conforms.
    pub failures: Vec<String>,
}

/// Runs one case at one size, collecting mock-checker failures (or the
/// compile error) as strings.
pub(crate) fn check_case(case: &GadgetCase, num_cols: usize) -> ConformanceReport {
    let compiled = match compile_case(case, num_cols) {
        Ok(c) => c,
        Err(e) => {
            return ConformanceReport {
                name: case.name,
                num_cols,
                k: 0,
                failures: vec![format!("compile failed: {e}")],
            }
        }
    };
    let k = compiled.k;
    let failures = match compiled.mock() {
        Ok(mock) => match mock.verify() {
            Ok(()) => Vec::new(),
            Err(fs) => fs.iter().map(|f| f.to_string()).collect(),
        },
        Err(e) => vec![format!("mock synthesis failed: {e}")],
    };
    ConformanceReport {
        name: case.name,
        num_cols,
        k,
        failures,
    }
}

/// Sweeps every zoo case through the mock checker at each column count
/// (skipping sizes below a case's minimum).
pub fn run_conformance(sizes: &[usize]) -> Vec<ConformanceReport> {
    let mut out = Vec::new();
    for case in crate::fixtures::zoo() {
        for &num_cols in sizes {
            if num_cols < case.min_cols {
                continue;
            }
            out.push(check_case(&case, num_cols));
        }
    }
    out
}
