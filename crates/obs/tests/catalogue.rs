//! The metric catalogue in `docs/OBSERVABILITY.md` cannot drift from the
//! code: its table names exactly the families the golden exposition
//! declares with `# HELP`, one row each, and every counter-family row is
//! the one generated from the counter declarations.

use std::collections::BTreeSet;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn catalogue_doc() -> String {
    read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ))
}

/// Rows of the `| Family | Kind | Meaning |` table.
fn table_rows(doc: &str) -> Vec<&str> {
    doc.lines()
        .skip_while(|l| !l.starts_with("| Family | Kind | Meaning |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .collect()
}

#[test]
fn catalogue_names_exactly_the_exported_families() {
    let exposition = read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/snapshot.prom"
    ));
    let exported: BTreeSet<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# HELP "))
        .map(|l| l.split(' ').next().expect("family name"))
        .collect();

    let doc = catalogue_doc();
    let rows = table_rows(&doc);
    let documented: Vec<&str> = rows
        .iter()
        .map(|row| {
            let name = row.split('`').nth(1).expect("backticked family name");
            name.split('{').next().expect("family name")
        })
        .collect();
    let unique: BTreeSet<&str> = documented.iter().copied().collect();
    assert_eq!(unique.len(), documented.len(), "one row per family");
    assert_eq!(unique, exported);
}

#[test]
fn counter_rows_are_generated_from_the_declarations() {
    let doc = catalogue_doc();
    let rows = table_rows(&doc);
    for row in evolve_obs::catalogue_rows() {
        assert!(
            rows.contains(&row.as_str()),
            "catalogue row missing or stale: {row}"
        );
    }
}
