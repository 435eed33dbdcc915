//! # ft-opbase — the operator-based baseline framework
//!
//! A miniature eager tensor framework standing in for PyTorch/JAX/DGL in the
//! paper's evaluation (per the substitution table in `DESIGN.md`). It has
//! exactly the properties the paper attributes to operator-based systems:
//!
//! * every operator materializes its full output tensor (and, for irregular
//!   programs, the *rearrangement* operators — `index_select`, `cat`,
//!   `unfold_window` — materialize heavily redundant intermediates,
//!   paper Figs. 1–2);
//! * every operator invocation is one kernel launch with its inputs and
//!   outputs streamed through DRAM (no fusion across operator boundaries);
//! * graph-based AD retains **all** intermediates until the backward pass
//!   completes (the memory behaviour behind the paper's OOM entries).
//!
//! Instrumentation matches `ft-runtime`'s counters, so FreeTensor programs
//! and baseline operator chains are compared on identical metrics (kernel
//! launches, DRAM bytes, FLOPs, peak footprint, modeled cycles).

pub mod backward;
pub mod ops;

use ft_ir::Device;
use ft_runtime::{DeviceConfig, PerfCounters, TensorVal};
use std::cell::RefCell;
use std::fmt;
use std::rc::{Rc, Weak};

/// Baseline-framework errors.
#[derive(Debug, Clone, PartialEq)]
pub enum OpError {
    /// Device memory exhausted (retained intermediates included).
    OutOfMemory {
        /// The device.
        device: Device,
        /// Bytes requested.
        requested: u64,
        /// Live bytes before the request.
        live: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// Operand shapes do not match the operator's contract.
    Shape(String),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::OutOfMemory {
                device,
                requested,
                live,
                capacity,
            } => write!(
                f,
                "out of memory on {device}: requested {requested} with {live} live of {capacity}"
            ),
            OpError::Shape(m) => write!(f, "shape error: {m}"),
        }
    }
}

impl std::error::Error for OpError {}

pub(crate) struct State {
    pub device: Device,
    pub config: DeviceConfig,
    pub counters: PerfCounters,
    pub grad_mode: bool,
    pub tape: Vec<ops::Entry>,
    pub next_id: usize,
}

/// An eager-framework session: owns the device model, the counters, and
/// (when gradients are enabled) the autograd tape.
pub struct Session {
    pub(crate) state: Rc<RefCell<State>>,
}

/// A framework tensor handle (cheap to clone; value is immutable).
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Rc<TensorInner>,
}

pub(crate) struct TensorInner {
    pub id: usize,
    pub val: TensorVal,
    state: Weak<RefCell<State>>,
}

impl Drop for TensorInner {
    fn drop(&mut self) {
        if let Some(state) = self.state.upgrade() {
            let mut st = state.borrow_mut();
            let dev = st.device.to_string();
            st.counters.free(&dev, self.val.size_bytes() as u64);
        }
    }
}

impl Tensor {
    /// The tensor's value.
    pub fn val(&self) -> &TensorVal {
        &self.inner.val
    }

    /// Stable id within the session (used to look up gradients).
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// Shape accessor.
    pub fn shape(&self) -> &[usize] {
        self.inner.val.shape()
    }
}

impl Session {
    /// A CPU session with the default device model.
    pub fn cpu() -> Session {
        Session::new(Device::Cpu, DeviceConfig::default())
    }

    /// A (simulated) GPU session with the default device model.
    pub fn gpu() -> Session {
        Session::new(Device::Gpu, DeviceConfig::default())
    }

    /// A session with an explicit device model.
    pub fn new(device: Device, config: DeviceConfig) -> Session {
        Session {
            state: Rc::new(RefCell::new(State {
                device,
                config,
                counters: PerfCounters::default(),
                grad_mode: false,
                tape: Vec::new(),
                next_id: 0,
            })),
        }
    }

    /// Enable gradient recording: every subsequent operator saves what its
    /// backward needs, and all intermediates stay live until
    /// [`Session::backward`] (the baseline's memory behaviour).
    pub fn set_grad_mode(&self, on: bool) {
        self.state.borrow_mut().grad_mode = on;
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> PerfCounters {
        self.state.borrow().counters.clone()
    }

    /// The session's device.
    pub fn device(&self) -> Device {
        self.state.borrow().device
    }

    /// Wrap an input value as a framework tensor (counted toward footprint).
    ///
    /// # Errors
    ///
    /// [`OpError::OutOfMemory`] if the allocation exceeds device capacity.
    pub fn tensor(&self, val: TensorVal) -> Result<Tensor, OpError> {
        self.alloc(val)
    }

    pub(crate) fn alloc(&self, val: TensorVal) -> Result<Tensor, OpError> {
        let mut st = self.state.borrow_mut();
        let device = st.device;
        let bytes = val.size_bytes() as u64;
        let dev = device.to_string();
        let live = *st.counters.live_bytes.get(&dev).unwrap_or(&0);
        let capacity = st.config.capacity(device) as u64;
        if live + bytes > capacity {
            return Err(OpError::OutOfMemory {
                device,
                requested: bytes,
                live,
                capacity,
            });
        }
        st.counters.alloc(&dev, bytes);
        let id = st.next_id;
        st.next_id += 1;
        drop(st);
        Ok(Tensor {
            inner: Rc::new(TensorInner {
                id,
                val,
                state: Rc::downgrade(&self.state),
            }),
        })
    }

    /// Charge one operator invocation: `io_elems` f32 elements streamed
    /// through DRAM, `flops` floating-point operations, one kernel launch on
    /// GPU sessions.
    pub(crate) fn charge(&self, io_elems: usize, flops: usize) {
        let mut st = self.state.borrow_mut();
        let bytes = (io_elems * 4) as u64;
        st.counters.heap_bytes += bytes;
        // Operator kernels stream whole tensors: every byte traverses the L2
        // and misses to DRAM (no producer-consumer reuse across operators).
        st.counters.l2_bytes += bytes;
        st.counters.dram_bytes += bytes;
        st.counters.flops += flops as u64;
        let width = match st.device {
            Device::Cpu => st.config.cpu_threads as f64,
            Device::Gpu => (st.config.gpu_sms * st.config.gpu_threads_per_block) as f64,
        };
        let mut cycles = flops as f64 * st.config.cost_op / width
            + bytes as f64 / 64.0 * st.config.cost_dram / 4.0;
        if st.device == Device::Gpu {
            st.counters.kernel_launches += 1;
            cycles += st.config.cost_kernel_launch;
        }
        st.counters.modeled_cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_tracks_live_tensors() {
        let s = Session::cpu();
        let a = s
            .tensor(TensorVal::zeros(ft_ir::DataType::F32, &[256]))
            .unwrap();
        assert_eq!(s.counters().live_bytes["cpu"], 1024);
        drop(a);
        assert_eq!(s.counters().live_bytes["cpu"], 0);
        assert_eq!(s.counters().peak_bytes["cpu"], 1024);
    }

    #[test]
    fn oom_on_tiny_capacity() {
        let cfg = DeviceConfig {
            gpu_mem_capacity: 512,
            ..Default::default()
        };
        let s = Session::new(Device::Gpu, cfg);
        let r = s.tensor(TensorVal::zeros(ft_ir::DataType::F32, &[1024]));
        assert!(matches!(r, Err(OpError::OutOfMemory { .. })));
    }

    #[test]
    fn gpu_ops_count_kernels() {
        let s = Session::gpu();
        s.charge(100, 100);
        s.charge(100, 100);
        assert_eq!(s.counters().kernel_launches, 2);
        let c = Session::cpu();
        c.charge(100, 100);
        assert_eq!(c.counters().kernel_launches, 0);
    }
}
