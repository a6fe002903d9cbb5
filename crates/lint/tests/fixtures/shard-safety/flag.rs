//@ file: crates/sim/src/fabric.rs
pub fn advance_level(engines: &mut [LinkEngine]) {
    for e in engines.iter_mut() {
        shard_step(e);
    }
}
pub fn handoff(engines: &mut [LinkEngine]) {}

fn shard_step(e: &mut LinkEngine) {
    let shared = std::rc::Rc::new(0u64);
    e.tag(shared);
}
