//! Stamps the compiler version and the repository commit into the
//! benchmark binary, for the metadata line of every run.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit());
    println!("cargo:rerun-if-changed=build.rs");
}

/// The last committed HEAD, read from the repository's `.git` directory
/// without running git; "none" outside a git checkout. Uncommitted
/// changes are not flagged.
fn commit() -> String {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let git = Path::new(&manifest_dir).join("../.git");
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "none".into();
    };
    // A new commit rewrites HEAD (detached), a loose ref under `refs/`
    // or, once refs are packed, `packed-refs`; watch all three.
    println!("cargo:rerun-if-changed={}", head_path.display());
    println!("cargo:rerun-if-changed={}", git.join("refs").display());
    let packed_path = git.join("packed-refs");
    if packed_path.exists() {
        println!("cargo:rerun-if-changed={}", packed_path.display());
    }
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(packed_path)
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
