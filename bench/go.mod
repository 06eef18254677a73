// The benchmark is a module of its own so it builds from its own directory;
// its path sits under "lapse/" so it may import lapse/internal/... packages.
module lapse/bench

go 1.24

require lapse v0.0.0

replace lapse => ../
