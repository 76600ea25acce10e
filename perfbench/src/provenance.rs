//! Provenance recorded in every result file.

use std::process::Command;

use serde_json::Value;

use crate::report::{num, obj};

/// Output of a short command, or `"unknown"` when it cannot run (a
/// checkout without git, a machine without rustc on the path). Git may
/// not look above the working directory for a repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Git revision, toolchain, build profile and core count.
pub fn collect() -> Value {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        (
            "git_rev",
            Value::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::String(command_line("rustc", &["-V"]))),
        ("profile", Value::String(profile.into())),
        ("nproc", num(nproc as f64)),
    ])
}
