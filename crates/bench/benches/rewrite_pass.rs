//! Emits `crates/bench/BENCH_rewrite_pass.json`, the counter document
//! the bench-regression gate (`bench_compare`) reads — see
//! [`bench::emit_rewrite_pass_json`]:
//!
//! ```sh
//! cargo bench -p bench --bench rewrite_pass
//! ```

fn main() {
    match bench::emit_rewrite_pass_json() {
        Ok(path) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write BENCH_rewrite_pass.json: {e}");
            std::process::exit(1);
        }
    }
}
