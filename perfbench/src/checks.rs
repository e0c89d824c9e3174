//! Output checks: the rendered tables must match the repository's
//! reference copies — `tests/golden/<ID>.txt` at quick scale, the
//! table blocks of `EXPERIMENTS.md` at full scale.

use hammertime::experiments::ExpTable;
use std::path::{Path, PathBuf};

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Lines with trailing blanks removed: the table renderer pads every
/// column, documentation copies may not keep the padding.
fn normalize(text: &str) -> String {
    text.lines()
        .map(str::trim_end)
        .collect::<Vec<_>>()
        .join("\n")
}

/// `Err` unless `rendered` is byte-equal to the golden snapshot.
pub fn check_golden(id: &str, rendered: &str, golden: &str) -> Result<(), String> {
    if rendered == golden {
        Ok(())
    } else {
        Err(format!("{id}: table differs from tests/golden/{id}.txt"))
    }
}

/// `Err` unless the table body (title line, header, rows) appears
/// verbatim, modulo trailing blanks, in the documentation text.
pub fn check_documented(id: &str, rendered: &str, doc: &str) -> Result<(), String> {
    if normalize(doc).contains(&normalize(rendered)) {
        Ok(())
    } else {
        Err(format!(
            "{id}: table does not appear verbatim in EXPERIMENTS.md"
        ))
    }
}

/// Checks every table against its reference copy at the given scale;
/// returns one message per mismatch.
pub fn check_tables(tables: &[ExpTable], quick: bool) -> Vec<String> {
    let root = repo_root();
    let doc = if quick {
        String::new()
    } else {
        match std::fs::read_to_string(root.join("EXPERIMENTS.md")) {
            Ok(doc) => doc,
            Err(e) => return vec![format!("cannot read EXPERIMENTS.md: {e}")],
        }
    };
    tables
        .iter()
        .filter_map(|t| {
            let rendered = t.to_string();
            let verdict = if quick {
                let path = root.join("tests/golden").join(format!("{}.txt", t.id));
                std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: cannot read {}: {e}", t.id, path.display()))
                    .and_then(|golden| check_golden(&t.id, &rendered, &golden))
            } else {
                check_documented(&t.id, &rendered, &doc)
            };
            verdict.err()
        })
        .collect()
}

/// The reference rendering of experiment `id` at the given scale: the
/// golden file (quick) or the matching block of `EXPERIMENTS.md`
/// (full), as text starting at the `== ID — ` title line.
pub fn reference_table(id: &str, quick: bool) -> Result<String, String> {
    let root = repo_root();
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    if quick {
        return read(root.join("tests/golden").join(format!("{id}.txt")));
    }
    let doc = read(root.join("EXPERIMENTS.md"))?;
    let title = format!("== {id} — ");
    let start = doc
        .find(&title)
        .ok_or_else(|| format!("EXPERIMENTS.md has no {id} table"))?;
    let block = &doc[start..];
    let end = block.find("```").unwrap_or(block.len());
    Ok(block[..end].to_string())
}

/// The cell in the row whose first column is `row` and the column
/// headed `column`, from a rendered table.
pub fn table_cell(table: &str, row: &str, column: &str) -> Option<String> {
    let mut lines = table
        .lines()
        .skip_while(|l| l.starts_with("== ") || l.is_empty());
    let header = lines.next()?;
    // Columns are left-aligned: a column starts where its header does.
    let start = header.find(column)?;
    let line = lines.find(|l| l.split_whitespace().next() == Some(row))?;
    let rest = line.get(start..)?;
    rest.split_whitespace().next().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime::experiments::ExpTable;

    fn table() -> ExpTable {
        let mut t = ExpTable::new("X1", "a test table", &["name", "ops/kcyc"]);
        t.push(vec!["alpha".into(), "1.75".into()]);
        t.push(vec!["beta".into(), "3.12".into()]);
        t
    }

    #[test]
    fn golden_check_accepts_equal_and_rejects_perturbed() {
        let rendered = table().to_string();
        assert!(check_golden("X1", &rendered, &rendered).is_ok());
        let perturbed = rendered.replace("1.75", "1.76");
        assert!(check_golden("X1", &rendered, &perturbed).is_err());
    }

    #[test]
    fn documented_check_ignores_padding_but_not_values() {
        let rendered = table().to_string();
        let doc = format!("# notes\n\n```text\n{}```\n", normalize(&rendered));
        assert!(check_documented("X1", &rendered, &doc).is_ok());
        let perturbed = doc.replace("3.12", "3.13");
        assert!(check_documented("X1", &rendered, &perturbed).is_err());
        let mut extra = table();
        extra.push(vec!["gamma".into(), "0.01".into()]);
        assert!(check_documented("X1", &extra.to_string(), &doc).is_err());
    }

    #[test]
    fn every_quick_golden_and_full_block_exists() {
        for exp in hammertime_fleet::full_registry() {
            for quick in [true, false] {
                let text = reference_table(exp.id(), quick).unwrap();
                assert!(text.starts_with(&format!("== {} — ", exp.id())));
            }
        }
    }

    #[test]
    fn table_cell_reads_by_row_and_column() {
        let rendered = table().to_string();
        assert_eq!(
            table_cell(&rendered, "beta", "ops/kcyc").as_deref(),
            Some("3.12")
        );
        assert_eq!(table_cell(&rendered, "gamma", "ops/kcyc"), None);
        let t1 = reference_table("T1", true).unwrap();
        assert_eq!(
            table_cell(&t1, "victim-refresh/convoluted", "benign ops/kcyc").as_deref(),
            Some("3.12")
        );
        let t1_full = reference_table("T1", false).unwrap();
        assert_eq!(
            table_cell(&t1_full, "victim-refresh/convoluted", "benign ops/kcyc").as_deref(),
            Some("1.75")
        );
    }
}
