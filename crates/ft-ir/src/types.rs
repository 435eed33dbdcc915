//! Scalar data types, memory spaces, devices and parallel scopes.

use std::fmt;

/// Element type of a tensor. A scalar is a 0-D tensor of one of these types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// 32-bit IEEE-754 floating point (`"f32"` in the DSL).
    F32,
    /// 64-bit IEEE-754 floating point (`"f64"` in the DSL).
    F64,
    /// 32-bit signed integer (`"i32"` in the DSL).
    I32,
    /// 64-bit signed integer (`"i64"` in the DSL).
    I64,
    /// Boolean (`"bool"` in the DSL).
    Bool,
}

impl DataType {
    /// Whether the type is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::F32 | DataType::F64)
    }

    /// Whether the type is an integer type.
    pub fn is_int(self) -> bool {
        matches!(self, DataType::I32 | DataType::I64)
    }

    /// Size of one element in bytes, as used by the memory-traffic counters.
    pub fn size_bytes(self) -> usize {
        match self {
            DataType::F32 | DataType::I32 => 4,
            DataType::F64 | DataType::I64 => 8,
            DataType::Bool => 1,
        }
    }

    /// Parse the DSL spelling of a data type.
    ///
    /// Returns `None` for unknown spellings.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(DataType::F32),
            "f64" => Some(DataType::F64),
            "i32" => Some(DataType::I32),
            "i64" => Some(DataType::I64),
            "bool" => Some(DataType::Bool),
            _ => None,
        }
    }

    /// The type that results from combining two operand types in arithmetic
    /// (the usual "wider wins, float beats int" promotion).
    pub fn promote(self, other: DataType) -> DataType {
        use DataType::*;
        match (self, other) {
            (F64, _) | (_, F64) => F64,
            (F32, _) | (_, F32) => F32,
            (I64, _) | (_, I64) => I64,
            (I32, _) | (_, I32) => I32,
            (Bool, Bool) => Bool,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::F32 => "f32",
            DataType::F64 => "f64",
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// Where a tensor is stored. `set_mtype` / `auto_mem_type` move tensors
/// between these spaces (paper Table 1, "Memory Hierarchy Trans.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemType {
    /// Main memory on the CPU, heap-allocated.
    CpuHeap,
    /// CPU stack storage for small, loop-local tensors (models registers /
    /// L1-resident scalars).
    CpuStack,
    /// GPU global memory (DRAM).
    GpuGlobal,
    /// GPU shared memory (per-block scratch-pad).
    GpuShared,
    /// GPU local storage (per-thread registers).
    GpuLocal,
}

impl MemType {
    /// The device this memory space belongs to.
    pub fn device(self) -> Device {
        match self {
            MemType::CpuHeap | MemType::CpuStack => Device::Cpu,
            MemType::GpuGlobal | MemType::GpuShared | MemType::GpuLocal => Device::Gpu,
        }
    }

    /// Whether a tensor of `ndim` dimensions here is a register: a 0-d
    /// `CpuStack` scalar, which the C back end declares as a local and the
    /// VM keeps in a machine register, and no executor but the reference
    /// interpreter stores in memory.
    pub fn register(self, ndim: usize) -> bool {
        ndim == 0 && self == MemType::CpuStack
    }

    /// The default memory space for freshly created tensors on a device.
    pub fn default_for(device: Device) -> Self {
        match device {
            Device::Cpu => MemType::CpuHeap,
            Device::Gpu => MemType::GpuGlobal,
        }
    }

    /// Rank of "distance from the processor": lower is closer (preferred by
    /// `auto_mem_type`). Registers < scratch-pad < main memory.
    pub fn distance_rank(self) -> u8 {
        match self {
            MemType::CpuStack | MemType::GpuLocal => 0,
            MemType::GpuShared => 1,
            MemType::CpuHeap | MemType::GpuGlobal => 2,
        }
    }

    /// Parse the DSL spelling (`"cpu"`, `"cpu/stack"`, `"gpu"`,
    /// `"gpu/shared"`, `"gpu/local"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cpu" | "cpu/heap" => Some(MemType::CpuHeap),
            "cpu/stack" => Some(MemType::CpuStack),
            "gpu" | "gpu/global" => Some(MemType::GpuGlobal),
            "gpu/shared" => Some(MemType::GpuShared),
            "gpu/local" => Some(MemType::GpuLocal),
            _ => None,
        }
    }
}

impl fmt::Display for MemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemType::CpuHeap => "cpu",
            MemType::CpuStack => "cpu/stack",
            MemType::GpuGlobal => "gpu",
            MemType::GpuShared => "gpu/shared",
            MemType::GpuLocal => "gpu/local",
        };
        f.write_str(s)
    }
}

/// Target device for a compiled function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Device {
    /// Multicore CPU (OpenMP-style parallelism).
    #[default]
    Cpu,
    /// CUDA-style GPU (grid of blocks of threads), simulated by the runtime.
    Gpu,
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::Cpu => f.write_str("cpu"),
            Device::Gpu => f.write_str("gpu"),
        }
    }
}

/// How the iterations of a `For` loop are mapped onto hardware parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParallelScope {
    /// Ordinary sequential loop.
    #[default]
    Serial,
    /// CPU threads (`#pragma omp parallel for`).
    OpenMp,
    /// CUDA `blockIdx.x` / `blockIdx.y`.
    CudaBlockX,
    /// Second grid dimension.
    CudaBlockY,
    /// CUDA `threadIdx.x` / `threadIdx.y`.
    CudaThreadX,
    /// Second block dimension.
    CudaThreadY,
}

impl ParallelScope {
    /// Whether loop iterations run concurrently under this scope.
    pub fn is_parallel(self) -> bool {
        !matches!(self, ParallelScope::Serial)
    }

    /// Whether this scope maps to the GPU grid/block hierarchy.
    pub fn is_gpu(self) -> bool {
        matches!(
            self,
            ParallelScope::CudaBlockX
                | ParallelScope::CudaBlockY
                | ParallelScope::CudaThreadX
                | ParallelScope::CudaThreadY
        )
    }

    /// Whether this is a CUDA *block* (grid-level) scope.
    pub fn is_gpu_block(self) -> bool {
        matches!(self, ParallelScope::CudaBlockX | ParallelScope::CudaBlockY)
    }

    /// Whether this is a CUDA *thread* (block-level) scope.
    pub fn is_gpu_thread(self) -> bool {
        matches!(
            self,
            ParallelScope::CudaThreadX | ParallelScope::CudaThreadY
        )
    }
}

impl fmt::Display for ParallelScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParallelScope::Serial => "serial",
            ParallelScope::OpenMp => "openmp",
            ParallelScope::CudaBlockX => "blockIdx.x",
            ParallelScope::CudaBlockY => "blockIdx.y",
            ParallelScope::CudaThreadX => "threadIdx.x",
            ParallelScope::CudaThreadY => "threadIdx.y",
        };
        f.write_str(s)
    }
}

/// Role of a tensor parameter with respect to the function boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Read-only input.
    Input,
    /// Write-only output.
    Output,
    /// Read-write parameter.
    InOut,
    /// Function-local temporary (used for `VarDef`s inside the body).
    Cache,
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessType::Input => "in",
            AccessType::Output => "out",
            AccessType::InOut => "inout",
            AccessType::Cache => "cache",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_properties() {
        assert!(DataType::F32.is_float());
        assert!(!DataType::I64.is_float());
        assert!(DataType::I32.is_int());
        assert_eq!(DataType::F64.size_bytes(), 8);
        assert_eq!(DataType::Bool.size_bytes(), 1);
        assert_eq!(DataType::parse("f32"), Some(DataType::F32));
        assert_eq!(DataType::parse("float"), None);
        assert_eq!(DataType::F32.to_string(), "f32");
    }

    #[test]
    fn dtype_promotion() {
        use DataType::*;
        assert_eq!(I32.promote(F32), F32);
        assert_eq!(F32.promote(F64), F64);
        assert_eq!(I32.promote(I64), I64);
        assert_eq!(Bool.promote(Bool), Bool);
        assert_eq!(Bool.promote(I32), I32);
    }

    #[test]
    fn mtype_device_and_rank() {
        assert_eq!(MemType::GpuShared.device(), Device::Gpu);
        assert_eq!(MemType::CpuHeap.device(), Device::Cpu);
        assert!(MemType::GpuLocal.distance_rank() < MemType::GpuShared.distance_rank());
        assert!(MemType::GpuShared.distance_rank() < MemType::GpuGlobal.distance_rank());
        assert_eq!(MemType::parse("gpu/shared"), Some(MemType::GpuShared));
        assert_eq!(MemType::default_for(Device::Gpu), MemType::GpuGlobal);
    }

    #[test]
    fn parallel_scope_queries() {
        assert!(ParallelScope::OpenMp.is_parallel());
        assert!(!ParallelScope::Serial.is_parallel());
        assert!(ParallelScope::CudaBlockX.is_gpu_block());
        assert!(ParallelScope::CudaThreadY.is_gpu_thread());
        assert!(ParallelScope::CudaThreadX.is_gpu());
        assert!(!ParallelScope::OpenMp.is_gpu());
    }
}
