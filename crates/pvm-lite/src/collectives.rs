//! Collective operations over the farm, in the spirit of `pvm_mcast`.
//! Built purely on the [`Transport`] surface, so every backend —
//! in-process mailboxes and sockets alike — gets them via the blanket
//! impl. The master's per-round gather lives in the engine, which filters
//! reports by incarnation epoch as part of resurrecting lost workers.

use crate::codec::Wire;
use crate::farm::CommError;
use crate::transport::Transport;

/// Collective extensions on a task context.
pub trait Collectives {
    /// Send `msg` to every other task (`pvm_mcast`).
    fn broadcast<T: Wire>(&self, tag: u32, msg: &T) -> Result<(), CommError>;
}

impl<C: Transport> Collectives for C {
    fn broadcast<T: Wire>(&self, tag: u32, msg: &T) -> Result<(), CommError> {
        let bytes = msg.to_bytes();
        for to in 0..self.ntasks() {
            if to != self.tid() {
                self.send_bytes(to, tag, bytes.clone())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecError, PackBuffer, UnpackBuffer};
    use crate::farm::run_farm;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(5);

    #[derive(Debug, Clone, PartialEq)]
    struct Num(i64);
    impl Wire for Num {
        fn pack(&self, buf: &mut PackBuffer) {
            buf.put_i64(self.0);
        }
        fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
            Ok(Num(buf.get_i64()?))
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let r = run_farm(4, |ctx| {
            if ctx.tid() == 0 {
                ctx.broadcast(1, &Num(99)).unwrap();
                0
            } else {
                ctx.recv_timeout(T).unwrap().decode::<Num>().unwrap().0
            }
        })
        .unwrap();
        assert_eq!(r, vec![0, 99, 99, 99]);
    }
}
