//! Firing fixture for `epoch-protocol`: the impl is missing three of
//! the four required methods (`access` is not one of them: it belongs to
//! the `MemorySubsystem` supertrait), and `drive` calls `epoch_boundary`
//! before `begin_epoch`.

pub struct Partial;

impl MemoryBackend for Partial {
    fn access(&mut self) {}
    fn begin_epoch(&mut self) {}
}

pub fn drive(backend: &mut Partial) {
    backend.epoch_boundary();
    backend.begin_epoch();
}
