//! The golden-file helper the `golden_*` suites share.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Reads the golden `tests/goldens/<name>`, or first rewrites it with
/// `fresh` when `NIMBLOCK_REGEN_GOLDENS` is set.
///
/// The rewrite goes to a sibling file that is then renamed into place.
/// Tests that share a golden run on parallel threads, and a rename is
/// atomic, so a reader sees the old file or the new one, never a file
/// another thread has truncated and not yet rewritten.
pub fn golden(name: &str, fresh: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens");
    let path = dir.join(name);
    if std::env::var("NIMBLOCK_REGEN_GOLDENS").is_ok() {
        static STAGED: AtomicUsize = AtomicUsize::new(0);
        let staged = dir.join(format!(
            ".{name}.{}.{}.tmp",
            std::process::id(),
            STAGED.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&staged, fresh)
            .unwrap_or_else(|e| panic!("cannot write {} ({e})", staged.display()));
        std::fs::rename(&staged, &path)
            .unwrap_or_else(|e| panic!("cannot replace {} ({e})", path.display()));
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with NIMBLOCK_REGEN_GOLDENS=1",
            path.display()
        )
    })
}
