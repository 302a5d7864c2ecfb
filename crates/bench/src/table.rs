//! What an experiment returns: a [`Table`] owns its CSV file name, its
//! columns (each header spelled once, as a printed/CSV pair that also says
//! whether the column is a wall-clock measurement), its rows and the lines
//! printed around it. [`Table::emit`] is the only code that prints a table
//! or writes a CSV.

use crate::Args;

/// One column of a [`Table`].
#[derive(Clone, Copy, Debug)]
pub struct Column {
    printed: &'static str,
    csv: &'static str,
    measured: bool,
}

/// A simulated column headed `printed` on stdout and `csv` in the file.
pub const fn col(printed: &'static str, csv: &'static str) -> Column {
    Column {
        printed,
        csv,
        measured: false,
    }
}

/// A simulated column with the same header on stdout and in the file.
pub const fn plain(name: &'static str) -> Column {
    col(name, name)
}

impl Column {
    /// Marks the column as *measured*: its cells are wall-clock readings of
    /// this host, so two runs of the same simulation differ in them.
    pub const fn measured(mut self) -> Column {
        self.measured = true;
        self
    }
}

/// How much of a table [`Table::emit`] prints (the CSV always has it all).
#[derive(Clone, Copy, Debug)]
pub enum Show {
    /// Every row.
    All,
    /// Every `n`-th row, starting with the first.
    Every(usize),
    /// Nothing: a series meant for plotting.
    Hidden,
}

/// One CSV artefact of an experiment, with its printed form.
#[derive(Clone, Debug)]
pub struct Table {
    file: &'static str,
    columns: Vec<Column>,
    rows: Vec<Vec<String>>,
    show: Show,
    heading: String,
    note: String,
}

impl Table {
    /// An empty table written to `file` (a name inside `--out`).
    pub fn new(file: &'static str, columns: impl Into<Vec<Column>>) -> Table {
        Table {
            file,
            columns: columns.into(),
            rows: Vec::new(),
            show: Show::All,
            heading: String::new(),
            note: String::new(),
        }
    }

    /// Sets how much of the table is printed.
    pub fn show(mut self, show: Show) -> Table {
        self.show = show;
        self
    }

    /// Sets the line(s) printed above the table.
    pub fn heading(mut self, heading: impl Into<String>) -> Table {
        self.heading = heading.into();
        self
    }

    /// Sets the line(s) printed below the table.
    pub fn note(mut self, note: impl Into<String>) -> Table {
        self.note = note.into();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics, naming the table, if the row does not have one cell per
    /// column or a cell contains the CSV separator or a newline.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "{}: a row has {} cells, the table has {} columns: {cells:?}",
            self.file,
            cells.len(),
            self.columns.len()
        );
        if let Some(cell) = cells.iter().find(|c| c.contains([',', '\n'])) {
            panic!("{}: CSV cell contains a separator: {cell:?}", self.file);
        }
        self.rows.push(cells);
    }

    /// The CSV file name.
    pub fn file(&self) -> &'static str {
        self.file
    }

    /// The CSV file's content: the header line, then one line per row.
    pub fn csv_text(&self) -> String {
        let header: Vec<&str> = self.columns.iter().map(|c| c.csv).collect();
        let mut text = header.join(",") + "\n";
        for row in &self.rows {
            text += &row.join(",");
            text.push('\n');
        }
        text
    }

    /// `csv` — this table's text, or the same table written by another
    /// build — with every measured cell blanked: two runs of one simulation
    /// are equal under this mask whatever host ran them.
    pub fn mask_measured(&self, csv: &str) -> String {
        let mut text = String::with_capacity(csv.len());
        for (n, line) in csv.lines().enumerate() {
            let cells = line.split(',').enumerate().map(|(i, cell)| {
                let measured = n > 0 && self.columns.get(i).is_some_and(|c| c.measured);
                if measured {
                    ""
                } else {
                    cell
                }
            });
            text += &cells.collect::<Vec<_>>().join(",");
            text.push('\n');
        }
        text
    }

    /// Prints the table (heading, aligned rows as [`Show`] says, note) and
    /// writes its CSV into `args.out`.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (an experiment whose artefact is missing must
    /// not look as if it had succeeded).
    pub fn emit(&self, args: &Args) {
        if !self.heading.is_empty() {
            println!("{}", self.heading);
        }
        match self.show {
            Show::All => self.print(1),
            Show::Every(n) => self.print(n),
            Show::Hidden => {}
        }
        if !self.note.is_empty() {
            println!("{}", self.note);
        }
        let path = args.out_path(self.file);
        std::fs::write(&path, self.csv_text())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("[wrote {}]", path.display());
    }

    fn print(&self, step: usize) {
        let headers: Vec<String> = self.columns.iter().map(|c| c.printed.to_owned()).collect();
        let shown: Vec<&Vec<String>> = self.rows.iter().step_by(step).collect();
        // `row` keeps every row as wide as the header, so `row[i]` exists.
        let width = |i: usize| {
            let cells = shown.iter().map(|row| row[i].chars().count());
            cells.fold(headers[i].chars().count(), usize::max)
        };
        let widths: Vec<usize> = (0..headers.len()).map(width).collect();
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (cell, w) in cells.iter().zip(&widths) {
                out += &format!("{cell:>w$}  ");
            }
            println!("{}", out.trim_end());
        };
        line(&headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in shown {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        let mut t = Table::new(
            "demo.csv",
            [
                col("H (s)", "horizon_s"),
                col("cost (ms)", "cost_ms").measured(),
                plain("detections"),
            ],
        );
        t.row(vec!["0.5".into(), "1.234".into(), "10".into()]);
        t.row(vec!["1.0".into(), "2.468".into(), "9".into()]);
        t
    }

    #[test]
    fn csv_text_uses_the_csv_headers() {
        assert_eq!(
            demo().csv_text(),
            "horizon_s,cost_ms,detections\n0.5,1.234,10\n1.0,2.468,9\n"
        );
    }

    #[test]
    fn mask_blanks_measured_cells_but_not_their_header() {
        let t = demo();
        let masked = "horizon_s,cost_ms,detections\n0.5,,10\n1.0,,9\n";
        assert_eq!(t.mask_measured(&t.csv_text()), masked);
        // Another host's file of the same simulation masks to the same text.
        let other = "horizon_s,cost_ms,detections\n0.5,7.7,10\n1.0,8.8,9\n";
        assert_eq!(t.mask_measured(other), masked);
        // A simulated cell that moved does not.
        let moved = "horizon_s,cost_ms,detections\n0.5,7.7,11\n1.0,8.8,9\n";
        assert_ne!(t.mask_measured(moved), masked);
    }

    #[test]
    #[should_panic(expected = "demo.csv: a row has 4 cells, the table has 3 columns")]
    fn a_row_wider_than_the_header_is_a_named_panic_at_the_push() {
        // `print_table` used to index `widths[i]` unguarded for this row.
        demo().row(vec!["2.0".into(), "3.0".into(), "8".into(), "x".into()]);
    }

    #[test]
    #[should_panic(expected = "demo.csv: a row has 2 cells")]
    fn a_row_narrower_than_the_header_is_rejected_too() {
        demo().row(vec!["2.0".into(), "3.0".into()]);
    }

    #[test]
    #[should_panic(expected = "CSV cell contains a separator")]
    fn a_cell_with_a_comma_is_rejected() {
        demo().row(vec!["2,0".into(), "3.0".into(), "8".into()]);
    }

    #[test]
    fn emit_writes_the_csv_text_even_when_nothing_is_printed() {
        let args = Args {
            out: std::env::temp_dir().join("selftune-bench-table-test"),
            ..Args::default()
        };
        let t = demo().show(Show::Hidden).heading("-- demo --").note("done");
        t.emit(&args);
        let written = std::fs::read_to_string(args.out.join("demo.csv")).expect("CSV written");
        assert_eq!(written, t.csv_text());
        demo().show(Show::Every(2)).emit(&args);
    }
}
