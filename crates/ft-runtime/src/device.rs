//! Modeled device configuration.

use ft_ir::{Device, ParallelScope};

/// Parameters of the modeled platform.
///
/// Defaults mirror the paper's testbed *shape* (dual 12-core Xeon, V100):
/// what matters for reproducing the evaluation is the ratio structure —
/// many-way GPU parallelism, bounded GPU memory, a sizable L2 — not the
/// absolute numbers.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Modeled CPU worker threads (`OpenMp` loops divide by this).
    pub cpu_threads: usize,
    /// Modeled number of streaming multiprocessors (`CudaBlock*` width).
    pub gpu_sms: usize,
    /// Modeled threads per block (`CudaThread*` width).
    pub gpu_threads_per_block: usize,
    /// GPU global-memory capacity in bytes (exceeding it is an OOM error).
    pub gpu_mem_capacity: usize,
    /// GPU shared-memory capacity per block in bytes.
    pub gpu_shared_capacity: usize,
    /// CPU memory capacity in bytes.
    pub cpu_mem_capacity: usize,
    /// L2 cache total size in bytes (simulated, 64-byte lines).
    pub l2_size: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Modeled cycle cost of one DRAM line fill.
    pub cost_dram: f64,
    /// Modeled cycle cost of one L2 hit.
    pub cost_l2: f64,
    /// Modeled cycle cost of one scratch (stack/shared/local) access.
    pub cost_scratch: f64,
    /// Modeled cycle cost of one arithmetic operation.
    pub cost_op: f64,
    /// Modeled fixed overhead of one kernel launch, in cycles.
    pub cost_kernel_launch: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            cpu_threads: 24,
            gpu_sms: 80,
            gpu_threads_per_block: 128,
            // Scaled-down capacities keep the OOM experiments (paper Figs.
            // 16(b)/18: Longformer exhausts the V100's 32 GB) reproducible
            // with small synthetic workloads.
            gpu_mem_capacity: 64 << 20,
            gpu_shared_capacity: 96 << 10,
            cpu_mem_capacity: 4 << 30,
            l2_size: 4 << 20,
            l2_ways: 16,
            cost_dram: 100.0,
            cost_l2: 10.0,
            cost_scratch: 1.0,
            cost_op: 1.0,
            cost_kernel_launch: 10_000.0,
        }
    }
}

impl DeviceConfig {
    /// Modeled parallel width of a loop mapped to `scope`.
    pub fn width(&self, scope: ParallelScope) -> usize {
        match scope {
            ParallelScope::Serial => 1,
            ParallelScope::OpenMp => self.cpu_threads,
            ParallelScope::CudaBlockX | ParallelScope::CudaBlockY => self.gpu_sms,
            ParallelScope::CudaThreadX | ParallelScope::CudaThreadY => {
                self.gpu_threads_per_block
            }
        }
    }

    /// Memory capacity of a device.
    pub fn capacity(&self, device: Device) -> usize {
        match device {
            Device::Cpu => self.cpu_mem_capacity,
            Device::Gpu => self.gpu_mem_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_follow_scopes() {
        let c = DeviceConfig::default();
        assert_eq!(c.width(ParallelScope::Serial), 1);
        assert_eq!(c.width(ParallelScope::OpenMp), c.cpu_threads);
        assert_eq!(c.width(ParallelScope::CudaBlockX), c.gpu_sms);
        assert_eq!(c.width(ParallelScope::CudaThreadY), c.gpu_threads_per_block);
    }

    #[test]
    fn capacities_per_device() {
        let c = DeviceConfig::default();
        assert!(c.capacity(Device::Cpu) > c.capacity(Device::Gpu));
    }
}
