//! Human-readable dumps of functions and programs (for debugging and
//! compiler trace output).

use crate::program::{Function, Program};
use std::fmt::Write as _;

/// Render a function as assembly-like text.
fn function_to_string(f: &Function) -> String {
    let mut s = String::new();
    let params: Vec<String> = f.params.iter().map(|p| p.to_string()).collect();
    let _ = writeln!(s, "func {}({}):", f.name, params.join(", "));
    for (bid, b) in f.iter_blocks() {
        let _ = writeln!(s, "{bid}:");
        for inst in &b.insts {
            let _ = writeln!(s, "    {inst}");
        }
    }
    s
}

/// Render a whole program, including the data-segment symbol table.
pub fn program_to_string(p: &Program) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "program {}:", p.name);
    let _ = writeln!(s, "  data ({} bytes):", p.data.size());
    for sym in &p.data.symbols {
        let _ = writeln!(
            s,
            "    {:#08x} {:>8}B  {}",
            crate::program::DataSegment::BASE + sym.offset,
            sym.size,
            sym.name
        );
    }
    for f in &p.funcs {
        s.push('\n');
        s.push_str(&function_to_string(f));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn dump_contains_blocks_and_symbols() {
        let mut pb = ProgramBuilder::new("demo");
        pb.data_mut().zeroed("buf", 16);
        let mut f = pb.function("main");
        let a = f.ldi(1);
        let b = f.ldi(2);
        f.add(a, b);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let text = program_to_string(&p);
        assert!(text.contains("program demo"));
        assert!(text.contains("buf"));
        assert!(text.contains("bb0:"));
        assert!(text.contains("add"));
        assert!(text.contains("halt"));
    }
}
