//@ file: crates/sim/src/fabric.rs
pub fn advance_level(engines: &mut [LinkEngine]) {
    for e in engines.iter_mut() {
        shard_step(e);
    }
}
pub fn handoff(engines: &mut [LinkEngine]) {}

fn shard_step(e: &mut LinkEngine) {
    e.advance();
}

// Runs after the level barrier, outside the per-shard cone.
fn merge_into(acc: &mut Stats, cell: &RefCell<Stats>) {
    acc.absorb(cell.borrow());
}
