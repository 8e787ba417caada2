module nab/bench

go 1.24

require nab v0.0.0

replace nab => ../
