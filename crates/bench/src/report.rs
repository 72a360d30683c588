//! What an experiment hands back: the tables it prints and the metrics
//! it emits, both built where it measures them.

use std::fmt;

/// A printed table: a title, a header row over a rule, one line per
/// row, and note lines under the rows. A column is as wide as its
/// widest cell, and right-aligned when its first row starts with a
/// digit. A table without a header is its title and its notes.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// An empty table under `title` with the columns `header`.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a row of cells, one per column.
    pub fn row(&mut self, cells: impl IntoIterator<Item = String>) {
        self.rows.push(cells.into_iter().collect());
    }

    /// Adds a line printed under the rows.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        if !self.header.is_empty() {
            let widths: Vec<usize> = (0..self.header.len())
                .map(|i| {
                    let cells = self.rows.iter().map(|row| &row[i]);
                    let widest = cells.chain([&self.header[i]]).map(|c| c.chars().count());
                    widest.max().unwrap_or(0)
                })
                .collect();
            let numeric = |i: usize| {
                let first = self.rows.first().map(|row| &row[i]);
                first.is_some_and(|c| c.starts_with(|ch: char| ch.is_ascii_digit()))
            };
            let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| {
                let padded: Vec<String> = (cells.iter().enumerate())
                    .map(|(i, cell)| match (numeric(i), widths[i]) {
                        (true, w) => format!("{cell:>w$}"),
                        (false, w) => format!("{cell:<w$}"),
                    })
                    .collect();
                writeln!(f, "{}", padded.join("  ").trim_end())
            };
            line(f, &self.header)?;
            let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            writeln!(f, "{}", "-".repeat(rule))?;
            for row in &self.rows {
                line(f, row)?;
            }
        }
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        Ok(())
    }
}

/// What one experiment reports: its tables, in print order, and the
/// metrics a gate suite writes and holds to its rules, in output order.
#[derive(Default)]
pub struct Report {
    /// The tables, printed one after another.
    pub tables: Vec<Table>,
    /// Flat `(key, value)` metrics.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.push((key.into(), value));
    }

    /// Adds a flag: 1 when `holds`, else 0.
    pub fn flag(&mut self, key: impl Into<String>, holds: bool) {
        self.metric(key, f64::from(u8::from(holds)));
    }
}

impl From<Table> for Report {
    fn from(table: Table) -> Self {
        Report {
            tables: vec![table],
            metrics: Vec::new(),
        }
    }
}

#[cfg(test)]
impl Table {
    /// The cells of the column named `name`, top to bottom.
    pub(crate) fn column(&self, name: &str) -> Vec<&str> {
        let i = self.header.iter().position(|h| h == name);
        let i = i.unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.title));
        self.rows.iter().map(|row| row[i].as_str()).collect()
    }

    /// The column named `name`, each cell read as a number.
    pub(crate) fn numbers(&self, name: &str) -> Vec<f64> {
        let number = |c: &str| c.trim_end_matches(|ch: char| !ch.is_ascii_digit()).parse();
        let cells = self.column(name).into_iter();
        cells
            .map(|c| number(c).unwrap_or_else(|_| panic!("{c:?} is not a number")))
            .collect()
    }

    pub(crate) fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
impl Report {
    /// The metric `key`.
    pub(crate) fn get(&self, key: &str) -> f64 {
        let found = self.metrics.iter().find(|(k, _)| k == key);
        found.unwrap_or_else(|| panic!("no metric {key}")).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_fit_their_widest_cell_and_numbers_align_right() {
        let mut table = Table::new("T", &["name", "n"]);
        table.row(["alpha".to_string(), "7".to_string()]);
        table.row(["b".to_string(), "1234".to_string()]);
        table.note("(a note)");
        assert_eq!(
            table.to_string(),
            "T\nname      n\n-----------\nalpha     7\nb      1234\n(a note)\n"
        );
        assert_eq!(table.numbers("n"), [7.0, 1234.0]);
    }
}
