//@ file: crates/sim/src/router.rs
impl LinkEngine {
    pub fn run_inner(&mut self) {}
    pub fn advance(&mut self) {}
    pub fn start_transmission(&mut self) {}
}
//@ file: crates/sim/src/fabric.rs
pub fn advance_level(engines: &mut [LinkEngine]) {}
pub fn handoff(engines: &mut [LinkEngine]) {}
impl SourceStage {
    fn fill(&mut self) {}
}
//@ file: crates/sim/src/event.rs
impl IndexedTimers {
    fn pop_log(&mut self) {}
}
impl Outbox {
    pub fn append(&mut self) {}
}
