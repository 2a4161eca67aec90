//! Allow directives are lint debt, and their number may only fall. The
//! test counts `sdoh-lint: allow(` in every Rust file of the repository
//! outside this crate (whose fixtures and tests quote the directive on
//! purpose). A change that deletes directives lowers [`MAX_ALLOWS`] to the
//! new count; a change that needs a new one deletes another first.

use std::path::Path;

use sdoh_lint::find_workspace_root;

/// Allow directives outside `crates/lint` at the last count.
const MAX_ALLOWS: usize = 108;

fn count_allows(dir: &Path, lint_crate: &Path) -> usize {
    let mut total = 0;
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry readable").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Build outputs and hidden directories hold no sources of ours.
            if !name.starts_with('.') && name != "target" && path != lint_crate {
                total += count_allows(&path, lint_crate);
            }
        } else if name.ends_with(".rs") {
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            total += source.matches("sdoh-lint: allow(").count();
        }
    }
    total
}

#[test]
fn allow_directives_do_not_grow() {
    let lint_crate = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(lint_crate).expect("lint crate lives inside the workspace");
    let total = count_allows(&root, lint_crate);
    assert!(
        total <= MAX_ALLOWS,
        "{total} allow directives outside crates/lint, at most {MAX_ALLOWS} allowed: \
         delete one before adding one"
    );
}
